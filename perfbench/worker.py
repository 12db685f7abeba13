"""Worker process: parses one workload's edge list and answers its queries.

It reads one JSON job on standard input and writes one JSON report on
standard output.  The process does nothing else, so its own `ru_maxrss` is
the workload's peak RSS.  Answers leave it only as digests of their
canonical form; the parent compares them with the expected digests.

Untraced mode sends the stream in whole passes over the pool until the time
is up and at least `min_passes` passes and `min_queries` queries have
returned.  It runs the calibration kernel before every query, so that the
parent can scale each timing to the host's speed at that moment.  Traced
mode answers one permutation of the pool, so that the counts repeat
exactly for a seed, and answers each query untraced as well, so that the
difference is the tracing overhead.
"""

from __future__ import annotations

import gc
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from tkcore import parse_edge_list, run_txcq  # noqa: E402

from calibrate import kernel_ms  # noqa: E402
from reference import canonical_answer, digest  # noqa: E402
from tracer import Tracer, wrapper_cost_ns  # noqa: E402
from workloads import stream_order, to_query_spec  # noqa: E402


def _parse(lines):
    gc.collect()
    started = time.perf_counter()
    g = parse_edge_list(lines)
    return g, time.perf_counter() - started


def _answer(g, spec, mode, corrupt=False, tracer=None):
    """(wall ms, digest, error text, stats) of one query; checking is not timed."""
    query = run_txcq if tracer is None else tracer.wrap("query", run_txcq)
    gc.collect()
    started = time.perf_counter_ns()
    try:
        result = query(g, spec)
    except Exception as exc:  # a failed query is counted, and the stream goes on
        return (time.perf_counter_ns() - started) / 1e6, None, f"{type(exc).__name__}: {exc}", None
    wall_ms = (time.perf_counter_ns() - started) / 1e6
    canonical = canonical_answer(result, mode, g.labels)
    if corrupt:
        canonical = ["corrupted", canonical]
    return wall_ms, digest(canonical), None, result.stats


def run_stream(job, lines, specs):
    """Answer the pool in whole seeded passes, so that every entry is
    answered equally often, until `seconds` have passed and at least
    `min_passes` passes and `min_queries` queries have returned.  Each query
    follows one kernel run.  The edge list is parsed again after every
    `setup_every` queries, so that set-up is sampled across the run; each
    parse is kept with the number of queries answered before it, which
    places it in the kernel series."""
    kernel = [kernel_ms()]
    g, setup = _parse(lines)
    setup_s = [[setup, 0]]
    modes = [s["mode"] for s in job["pool"]]
    order = stream_order(len(specs), job["seed"])
    queries = []
    deadline = time.perf_counter() + job["seconds"]
    passes = 0
    while (
        passes < job["min_passes"]
        or len(queries) < job["min_queries"]
        or time.perf_counter() < deadline
    ):
        for _ in specs:
            i = next(order)
            corrupt = len(queries) == job["corrupt"]
            if queries:  # the first query follows the run before the first parse
                kernel.append(kernel_ms())
            wall_ms, dig, err, _ = _answer(g, specs[i], modes[i], corrupt)
            queries.append([i, wall_ms, dig, err])
            if len(queries) % job["setup_every"] == 0:
                setup_s.append([_parse(lines)[1], len(queries)])
        passes += 1
    return {"queries": queries, "setup_s": setup_s, "kernel_ms": kernel}


def run_traced(job, lines, specs, span_path):
    """Answer one permutation of the pool, each query untraced and traced,
    back to back so that both see the host in the same state, and in
    alternating order so that neither side always finds memory warm."""
    g, setup = _parse(lines)
    modes = [s["mode"] for s in job["pool"]]
    stream = stream_order(len(specs), job["seed"])
    order = [next(stream) for _ in specs]
    tracer = Tracer()
    untraced, traced, stats = [], [], []
    for q, i in enumerate(order):
        if q % 2 == 0:
            untraced.append(_answer(g, specs[i], modes[i]))
        tracer.query = q
        with tracer.install():
            wall_ms, dig, err, st = _answer(g, specs[i], modes[i], tracer=tracer)
        traced.append((wall_ms, dig, err))
        stats.append(st)
        if q % 2 == 1:
            untraced.append(_answer(g, specs[i], modes[i]))
    if span_path:
        tracer.write(span_path)
    queries = [[i, *run[:3]] for i, run in zip(order + order, untraced + traced)]
    layers = aggregate(tracer, [modes[i] for i in order], stats, wrapper_cost_ns())
    layers["trace.untraced_ms"] = sum(u[0] for u in untraced)
    layers["trace.overhead_ms"] = sum(t[0] for t in traced) - layers["trace.untraced_ms"]
    # the benchmark calls the parser itself, so that call is its span
    layers["graph.parse.self_ms"] = setup * 1000.0
    layers["graph.parse.edges"] = g.edge_count
    return {"queries": queries, "layers": layers, "setup_s": [setup]}


def aggregate(tracer, modes, stats, wrapper_ns):
    """Per-layer totals over the traced queries; each span's self time
    leaves out `wrapper_ns` per child span, the wrapper's own cost."""
    query_span = {q: sid for sid, _, q, name, *_ in tracer.spans if name == "query"}
    totals = {}  # span name -> [calls, self ns, edges]
    child_ns = {}  # span id -> time its children cover, and their wrappers' cost
    query_ns = {}  # query -> duration
    walk_children = dict.fromkeys(query_span, 0)  # query -> time in its tel.*/tcq.* spans
    wrappers = 0  # child spans, each of whose wrappers cost `wrapper_ns` outside its span
    captures = dict.fromkeys(query_span, 0)
    exhaustive = set()  # queries that run_txcq routed to run_tcd_star
    for sid, parent, q, name, start, end, n in tracer.spans:  # children end first
        dur = end - start
        acc = totals.setdefault(name, [0, 0, 0])
        acc[0] += 1
        acc[1] += dur - child_ns.pop(sid, 0)
        acc[2] += n
        if parent is not None:
            child_ns[parent] = child_ns.get(parent, 0) + dur + wrapper_ns
            wrappers += 1
        if name == "query":
            query_ns[q] = dur
        elif name == "txcq.tcd_star":
            exhaustive.add(q)
        elif name == "tel.capture":
            captures[q] += 1
        if parent == query_span.get(q) and name.startswith(("tel.", "tcq.")):
            walk_children[q] += dur + wrapper_ns

    out = {}
    for name in (
        "tel.build", "tel.clone", "tel.truncate", "tel.peel", "tel.capture",
        "tcq.prune", "tcq.next_unpruned", "txcq.members", "txcq.tcd_star", "measures.evaluate",
    ):
        calls, own, edges = totals.get(name, (0, 0, 0))
        out[f"{name}.calls"] = calls
        out[f"{name}.self_ms"] = own / 1e6
        if name.startswith("tel."):
            out[f"{name}.edges"] = edges
    out["txcq.members.intervals"] = totals.get("txcq.members", (0, 0, 0))[2]

    zones = {q: len(tracer.captured.get(q, ())) for q in query_ns}
    walks = [q for q in query_ns if q not in exhaustive]  # answered by OTCD*
    out["txcq.zones"] = sum(zones.values())
    walk_zones = sum(zones[q] for q in walks)
    walk_captures = sum(captures[q] for q in walks)
    out["tel.capture.per_core"] = walk_captures / walk_zones if walk_zones else 0.0
    measured_zones = sum(zones[q] for q in query_ns if modes[q] != "enumerate")
    evals = out["measures.evaluate.calls"]
    out["measures.evals_per_zone"] = evals / measured_zones if measured_zones else 0.0

    program_ns = sum(query_ns.values()) - wrappers * wrapper_ns
    uncovered_ns = totals.get("query", (0, 0, 0))[1]
    out["trace.queries"] = len(query_ns)
    out["trace.coverage_pct"] = 100.0 * (program_ns - uncovered_ns) / program_ns if program_ns else 0.0
    out["trace.wrapper_ns"] = wrapper_ns
    out["trace.wrappers_ms"] = wrappers * wrapper_ns / 1e6

    # the rest come from the program's own stats, of the queries that
    # returned; a field this version of the program lacks is absent
    answered = [q for q in query_ns if stats[q] is not None]
    walks = [q for q in walks if stats[q] is not None]
    phase1 = [getattr(stats[q], "phase1_ms", None) for q in answered]
    phase2 = [getattr(stats[q], "phase2_ms", None) for q in answered]
    if None not in phase1:
        out["txcq.phase1_ms"] = sum(phase1)
        out["tcq.schedule.self_ms"] = sum(
            stats[q].phase1_ms - walk_children[q] / 1e6 for q in walks
        )
    if None not in phase2:
        out["txcq.phase2_ms"] = sum(phase2)
    visited = [getattr(stats[q], "cells_visited", None) for q in walks]
    counters = [getattr(stats[q], "prune_counters", None) or {} for q in walks]
    if None not in visited:
        out["tcq.cells_visited"] = sum(visited)
    if all("cells_total" in c for c in counters):
        out["tcq.cells_total"] = sum(c["cells_total"] for c in counters)
        if "tcq.cells_visited" in out and out["tcq.cells_total"]:
            out["tcq.visit_ratio"] = out["tcq.cells_visited"] / out["tcq.cells_total"]
    if all("pruned_pct_per_rule" in c and "cells_total" in c for c in counters):
        for rule in sorted({r for c in counters for r in c["pruned_pct_per_rule"]}):
            out[f"tcq.pruned.{rule}"] = sum(
                round(c["pruned_pct_per_rule"].get(rule, 0.0) * c["cells_total"] / 100.0)
                for c in counters
            )
    return out


def main():
    job = json.load(sys.stdin)
    lines = job["edge_list"].splitlines()
    specs = [to_query_spec(s) for s in job["pool"]]
    if job["trace"]:
        report = run_traced(job, lines, specs, job["span_path"])
    else:
        report = run_stream(job, lines, specs)
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    json.dump(report, sys.stdout)


if __name__ == "__main__":
    main()
