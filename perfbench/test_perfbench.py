"""Self-tests of the benchmark, on every workload at a tiny edge count.

    python3 -m pytest -q perfbench

They check that every metric is printed by name with its unit and that the
stream answers whole passes over the pool, that the traced counts repeat
exactly for a fixed seed, that a spoiled answer is counted as a failure,
which tests the checker itself, that self times leave out the wrappers'
own cost, and that the host-speed scale follows the calibration kernel.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402

assert bench._load_library() is None

import calibrate  # noqa: E402
from tracer import Tracer  # noqa: E402
from worker import aggregate  # noqa: E402
from workloads import build_inputs  # noqa: E402

TINY = 0.05  # share of the workload's edges
SEED = 3
COUNTS = ("calls", "edges", "intervals")


def tiny_run(workload, trace, corrupt=-1):
    return bench.run(workload, SEED, 0.2, trace, corrupt=corrupt, scale=TINY)


def declared(kind):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def test_declared_metrics_match_the_code():
    assert declared("end_to_end") == bench.END_TO_END
    assert declared("per_layer") == bench.PER_LAYER
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOAD_NAMES)


@pytest.mark.parametrize("workload", bench.WORKLOAD_NAMES)
def test_every_metric_is_printed_with_its_unit(workload):
    lines, result = tiny_run(workload, trace=0)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= bench.MIN_QUERIES
    pool = len(build_inputs(workload, SEED, TINY).pool)
    assert result["attempted"] % pool == 0  # whole passes only
    assert result["attempted"] >= bench.MIN_PASSES * pool
    assert {n: m["unit"] for n, m in result["metrics"].items()} == bench.END_TO_END
    report = "\n".join(lines)
    for name, unit in {**bench.END_TO_END, "error_rate": ""}.items():
        assert name in report and unit in report
    assert json.loads(json.dumps(result)) == result


@pytest.mark.parametrize("workload", bench.WORKLOAD_NAMES)
def test_traced_counts_repeat_for_a_seed(workload):
    runs = [tiny_run(workload, trace=1)[1] for _ in range(2)]
    for result in runs:
        assert result["correct"]
        assert {n: m["unit"] for n, m in result["metrics"].items()} == bench.PER_LAYER
    first, second = ({n: m["value"] for n, m in r["metrics"].items()} for r in runs)
    counts = [
        n
        for n in first
        if n.rsplit(".", 1)[-1] in COUNTS
        or n in ("tcq.cells_visited", "txcq.zones", "trace.queries")
    ]
    assert "measures.evaluate.calls" in counts and "tel.capture.edges" in counts
    assert {n: first[n] for n in counts} == {n: second[n] for n in counts}


@pytest.mark.parametrize("workload", bench.WORKLOAD_NAMES)
def test_a_spoiled_answer_counts_as_an_error(workload):
    lines, result = tiny_run(workload, trace=0, corrupt=0)
    assert not result["correct"]
    assert result["failed"] == 1
    assert f"error_rate {1 / result['attempted']:.4f}" in lines[0]


def test_self_times_leave_out_the_wrappers_own_cost():
    tracer = Tracer()
    # (id, parent, query, name, start_ns, end_ns, edges), children first
    tracer.spans = [
        (1, 0, 0, "tel.build", 100, 300, 7),
        (2, 0, 0, "measures.evaluate", 400, 500, 0),
        (0, None, 0, "query", 0, 1000, 0),
    ]
    layers = aggregate(tracer, ["optimize"], [None], wrapper_ns=50)
    assert layers["tel.build.self_ms"] == 200 / 1e6
    assert layers["trace.wrappers_ms"] == 100 / 1e6
    # the query keeps 600 ns of its own, of 900 ns of program time
    assert layers["trace.coverage_pct"] == 100.0 * (900 - 600) / 900


def test_speed_factor_follows_the_kernel_beside_a_timing():
    ref = calibrate.REFERENCE_MS
    steady = [ref] * 10
    assert calibrate.speed_factor(steady, 0) == 1.0
    # a spell at half speed from run 5 on scales timings there by a half
    spell = [ref] * 5 + [2 * ref] * 5
    assert calibrate.speed_factor(spell, 9) == 0.5
    assert calibrate.speed_factor(spell, 1) == 1.0
    # one slow kernel run is outvoted by its neighbours
    assert calibrate.speed_factor([ref, ref, 9 * ref, ref, ref], 2) == 1.0
