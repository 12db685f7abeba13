"""Run one tkcore benchmark workload and print its metrics.

    python3 perfbench/run.py --workload dense-k3 --seed 1 --seconds 25 --trace 0

`--workload all` runs every workload in turn.  Run from the root of a source checkout; the library is imported from its
`src/`.  The parent process builds the seeded inputs and the expected
answers, then starts `worker.py`, which parses the edge list and answers the
query stream, one query at a time.  With `--trace 0` the last line of
output holds the end-to-end metrics; with `--trace 1` it holds the
per-layer metrics of a separate traced pass.  Lines before it are a
readable report.  The exit code is 0 only when a result line is printed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOAD_NAMES = ("dense-k3", "zones-k2", "gapped-raw")
MIN_QUERIES = 100
MIN_PASSES = 3  # answers per pool entry, of which the median is kept
SETUP_EVERY = 5  # queries between two timed parses of the edge list
# beyond --seconds: the expected answers, the last pass over the pool and
# the passes that MIN_PASSES adds on a short run
WORKER_MARGIN_S = 120

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "queries_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "graph.parse.self_ms": "ms",
    "graph.parse.edges": "count",
    **{
        f"tel.{layer}.{what}": unit
        for layer in ("build", "clone", "truncate", "peel", "capture")
        for what, unit in (("calls", "count"), ("self_ms", "ms"), ("edges", "count"))
    },
    "tel.capture.per_core": "ratio",
    "tcq.prune.calls": "count",
    "tcq.prune.self_ms": "ms",
    "tcq.next_unpruned.calls": "count",
    "tcq.next_unpruned.self_ms": "ms",
    "tcq.schedule.self_ms": "ms",
    "tcq.cells_visited": "count",
    "tcq.cells_total": "count",
    "tcq.visit_ratio": "ratio",
    **{f"tcq.pruned.{rule}": "count" for rule in ("PoR", "PoU", "PoL", "Rule4", "Empty")},
    "txcq.phase1_ms": "ms",
    "txcq.phase2_ms": "ms",
    "txcq.zones": "count",
    "txcq.members.calls": "count",
    "txcq.members.intervals": "count",
    "txcq.tcd_star.calls": "count",
    "measures.evaluate.calls": "count",
    "measures.evaluate.self_ms": "ms",
    "measures.evals_per_zone": "ratio",
    "trace.queries": "count",
    "trace.coverage_pct": "%",
    "trace.untraced_ms": "ms",
    "trace.overhead_ms": "ms",
}

# Reported but left out of the result line: they are 0 on every run of a
# workload that never reaches the layer, and a time that never changes
# cannot be told apart from one that was not measured.
REPORT_ONLY = {
    "txcq.members.self_ms": "ms",
    "txcq.tcd_star.self_ms": "ms",
    # cost of one wrapper outside its span, and of all of them, which the
    # self times and coverage leave out
    "trace.wrapper_ns": "ns",
    "trace.wrappers_ms": "ms",
}


def _load_library():
    """Import tkcore from this checkout's src/, or explain why not."""
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    try:
        import tkcore
    except ImportError as exc:
        return f"cannot import tkcore from {ROOT / 'src'}: {exc}"
    if Path(tkcore.__file__).resolve().parent.parent != (ROOT / "src").resolve():
        return f"imported tkcore from {tkcore.__file__}, not from this checkout"
    return None


def run(workload, seed, seconds, trace, corrupt=-1, scale=1.0):
    """The report lines and the result object, or raise RuntimeError."""
    from tkcore import parse_edge_list

    from calibrate import REFERENCE_MS, speed_factor
    from reference import expected_digests
    from workloads import build_inputs

    # Start the worker first: a child inherits its parent's ru_maxrss at
    # fork, so the parent must be small then, before the reference runs.
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py")],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        inputs = build_inputs(workload, seed, scale)
        started = time.perf_counter()
        expected = expected_digests(parse_edge_list(inputs.lines), inputs.pool, inputs.gapped)
        reference_s = time.perf_counter() - started
        gc.collect()  # the reference engines leave cyclic garbage; free it before timing

        span_path = None
        if trace:
            span_dir = ROOT / ".bench_spans"
            span_dir.mkdir(exist_ok=True)
            span_path = str(span_dir / f"{workload}-seed{seed}.tsv.gz")
        job = {
            "edge_list": "".join(inputs.lines),
            "pool": inputs.pool,
            "seed": seed,
            "seconds": seconds,
            "min_queries": MIN_QUERIES,
            "min_passes": MIN_PASSES,
            "setup_every": SETUP_EVERY,
            "trace": trace,
            "corrupt": corrupt,
            "span_path": span_path,
        }
        timeout = seconds + WORKER_MARGIN_S
        stdout, stderr = proc.communicate(json.dumps(job), timeout=timeout)
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"worker did not finish within {timeout} s") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{stderr}")
    report = json.loads(stdout)

    queries = report["queries"]
    wrong = [(i, err) for i, _, dig, err in queries if dig != expected[i]]
    attempted, failed = len(queries), len(wrong)
    lines = [
        f"workload {workload}, seed {seed}: {attempted} queries from a pool of "
        f"{len(inputs.pool)}, {failed} failed, error_rate {failed / attempted:.4f}, "
        f"expected answers took {reference_s:.1f} s"
    ]
    for i, err in wrong[:5]:
        lines.append(f"  wrong answer to pool query {i} {inputs.pool[i]}: {err or 'digest differs'}")

    if trace:
        layers = report["layers"]
        metrics = {n: {"value": layers[n], "unit": u} for n, u in PER_LAYER.items() if n in layers}
        absent = [n for n in PER_LAYER if n not in layers]
        shown = {**PER_LAYER, **REPORT_ONLY}
        lines += [f"  {n:<28} {layers[n]:>14.6g} {u}" for n, u in shown.items() if n in layers]
        if absent:
            lines.append(f"  absent (the program no longer reports them): {', '.join(absent)}")
        lines.append(f"  spans written to {span_path}")
    else:
        # The host's speed swings by 1.4-1.9x in spells of seconds to
        # minutes, so each timing is scaled by the calibration kernel run
        # beside it (calibrate.py), and each pool entry keeps the median of
        # its scaled answers.
        kernel = report["kernel_ms"]
        answers = {}
        for j, (i, ms, _, _) in enumerate(queries):
            answers.setdefault(i, []).append(ms * speed_factor(kernel, j))
        wall_ms = [statistics.median(a) for a in answers.values()]
        setup = [s * speed_factor(kernel, at) for s, at in report["setup_s"]]
        values = {
            "setup_s": statistics.median(setup),
            "query_p50_ms": statistics.median(wall_ms),
            "query_p90_ms": statistics.quantiles(wall_ms, n=10, method="inclusive")[8],
            # one pass over the pool at those times, counting correct answers
            "queries_per_s": (attempted - failed) / attempted * len(wall_ms) / (sum(wall_ms) / 1000.0),
            "peak_rss_mb": report["peak_rss_mb"],
        }
        metrics = {n: {"value": values[n], "unit": u} for n, u in END_TO_END.items()}
        lines += [f"  {n:<16} {values[n]:>12.4f} {u}" for n, u in END_TO_END.items()]
        lines.append(f"  {'error_rate':<16} {failed / attempted:>12.4f} of queries attempted")
        raw_ms = [ms for _, ms, _, _ in queries]
        lines.append(
            f"  unscaled: kernel median {statistics.median(kernel):.3f} ms "
            f"(reference {REFERENCE_MS} ms), query median {statistics.median(raw_ms):.3f} ms, "
            f"parse median {statistics.median(s for s, _ in report['setup_s']):.5f} s"
        )
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return lines, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.environ.pop("TXC_THREADS", None)  # keep the library off its thread-pool path
    problem = _load_library()
    if problem:
        print(problem, file=sys.stderr)
        return 2
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        try:
            lines, results[name] = run(name, args.seed, args.seconds, args.trace)
        except RuntimeError as exc:
            print(exc, file=sys.stderr)
            return 1
        print("\n".join(lines))
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
        return 0
    combined = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}/{n}": m for w, r in results.items() for n, m in r["metrics"].items()},
    }
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
