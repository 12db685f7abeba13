"""Acceptance gate: nine end-to-end criteria, one test each.

Each test prints a single summary line with the measured numbers so a
`pytest -v -rA` run doubles as a report.  Thresholds live next to the
asserts; corpora are seeded so reruns are bit-identical.
"""

import math
import random
import statistics
import time

import pytest

from tkcore import TimeInterval, generate_synthetic
from tkcore.measures import EvalContext, compare, evaluate, get_measure, list_measures
from tkcore.oracle import brute_force_tcq, brute_force_txcq
from tkcore.tcq import run_otcd, run_tcd
from tkcore.txcq import (
    QuerySpec,
    canonical_result,
    run_otcd_star,
    run_tcd_star,
    run_txcq,
)

from conftest import rect_dims

MODELS = ("uniform", "preferential", "planted-community")
CORPUS_WINDOW = (1, 25)


def _zone_values(g, zones, measure):
    ctx = EvalContext(graph=g, all_zones=tuple(zones), params=dict(measure.params))
    return [evaluate(measure, z.core, z.tti, ctx.with_zone(z)) for z in zones]


@pytest.fixture(scope="module")
def enumeration_corpus():
    """200 seeded graphs x k in {2,3,4}, with oracle catalogs precomputed."""
    rng = random.Random(20_26)
    instances = []
    for idx in range(200):
        g = generate_synthetic(
            rng.randint(6, 40), rng.randint(10, 300), rng.randint(4, 25),
            model=MODELS[idx % 3], seed=idx,
        )
        for k in (2, 3, 4):
            instances.append((idx, k, g, brute_force_tcq(g, k, CORPUS_WINDOW)))
    return instances


@pytest.fixture(scope="module")
def planted_big():
    """The pruning benchmark instance: one TCD sweep plus best-of-3 OTCD."""
    g = generate_synthetic(1000, 20000, 100, model="planted-community", seed=42)
    tcd_catalog = run_tcd(g, 3, (1, 100))
    otcd_catalog = None
    for _ in range(3):
        candidate = run_otcd(g, 3, (1, 100))
        if otcd_catalog is None or candidate.stats.wall_ms < otcd_catalog.stats.wall_ms:
            otcd_catalog = candidate
    return g, tcd_catalog, otcd_catalog


def test_criterion_01_enumeration_matches_oracle(enumeration_corpus):
    started = time.perf_counter()
    decompositions = {run_tcd: 0, run_otcd: 0}
    for idx, k, g, oracle in enumeration_corpus:
        expected = {c.tti: c.core for c in oracle.classes}
        tcd, otcd = (runner(g, k, CORPUS_WINDOW) for runner in (run_tcd, run_otcd))
        for runner, catalog in ((run_tcd, tcd), (run_otcd, otcd)):
            assert dict(catalog.cores) == expected, (runner.__name__, idx, k)
            decompositions[runner] += catalog.stats.decompositions
        # work: TCD visits every rank cell, and OTCD decomposes no more than it
        assert tcd.stats.cells_visited == tcd.stats.cells_total, (idx, k)
        assert otcd.stats.decompositions <= tcd.stats.decompositions, (idx, k)
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0
    print(
        f"criterion 1: 600 instance/k pairs, tcd+otcd == oracle exactly, {elapsed:.1f}s; "
        f"decompositions tcd {decompositions[run_tcd]}, otcd {decompositions[run_otcd]}"
    )


def test_criterion_02_zone_records_match_oracle(enumeration_corpus):
    cells_checked = 0
    for idx, k, g, oracle in enumeration_corpus:
        zones = run_otcd_star(g, k, CORPUS_WINDOW)
        got = {(z.tti, z.ltis, z.core) for z in zones}
        want = {(c.tti, c.ltis, c.core) for c in oracle.classes}
        assert got == want, (idx, k)
        if oracle.window is None:
            assert not zones
            continue
        member_tti = {m: c.tti for c in oracle.classes for m in c.members}
        w = oracle.window
        for ts in range(w.ts, w.te + 1):
            for te in range(ts, w.te + 1):
                cell = TimeInterval(ts, te)
                containing = [z.tti for z in zones if cell in z.members]
                assert len(containing) <= 1, (idx, k, cell)
                expected = [member_tti[cell]] if cell in member_tti else []
                assert containing == expected, (idx, k, cell)
                cells_checked += 1
    print(f"criterion 2: zone geometry exact, {cells_checked} subinterval membership checks")


def test_criterion_03_measured_modes_match_oracle():
    rng = random.Random(4242)
    measures = [get_measure(name) for name in list_measures()]
    instances = []
    seed = 0
    while len(instances) < 100:
        seed += 1
        g = generate_synthetic(
            rng.randint(4, 10), rng.randint(5, 50), rng.randint(3, 9),
            model=MODELS[seed % 3], seed=10_000 + seed,
        )
        k = rng.choice((2, 3))
        zones = run_otcd_star(g, k, (1, 9))
        if zones:
            instances.append((g, k, zones))
    queries = 0
    for g, k, zones in instances:
        for m in measures:
            vals = sorted(_zone_values(g, zones, m))
            n = len(vals)
            sigmas = sorted({vals[n // 4], vals[n // 2], vals[(3 * n) // 4]})
            specs = [QuerySpec(k=k, window=(1, 9), measure=m, mode="optimize")]
            specs += [
                QuerySpec(k=k, window=(1, 9), measure=m, mode="constrain", sigma=s)
                for s in sigmas
            ]
            for spec in specs:
                want = canonical_result(brute_force_txcq(g, spec), spec.mode)
                for runner in (run_txcq, run_tcd_star):
                    got = canonical_result(runner(g, spec), spec.mode)
                    assert got == want, (m.name, spec.mode, spec.sigma)
                queries += 1
    print(f"criterion 3: {queries} measured queries exact across run_txcq, run_tcd_star, oracle")


def test_criterion_04_pruning_skips_most_cells(planted_big):
    _, tcd_catalog, otcd_catalog = planted_big
    assert dict(otcd_catalog.cores) == dict(tcd_catalog.cores)
    visited_ratio = otcd_catalog.stats.cells_visited / tcd_catalog.stats.cells_visited
    assert visited_ratio <= 0.20
    assert tcd_catalog.stats.wall_ms + otcd_catalog.stats.wall_ms < 120_000
    print(
        f"criterion 4: otcd visited {otcd_catalog.stats.cells_visited}"
        f"/{tcd_catalog.stats.cells_visited} cells (ratio {visited_ratio:.3f} <= 0.20)"
    )


def test_criterion_05_relative_speed(planted_big):
    g, tcd_catalog, otcd_catalog = planted_big
    wall_ratio = otcd_catalog.stats.wall_ms / tcd_catalog.stats.wall_ms
    assert wall_ratio <= 0.20
    assert otcd_catalog.stats.decompositions <= 0.20 * tcd_catalog.stats.decompositions

    def best_of(fn, repeats=3):
        best = math.inf
        for _ in range(repeats):
            t0 = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - t0)
        return best

    base = best_of(lambda: run_otcd_star(g, 3, (1, 100)))
    zone_count = len(run_otcd_star(g, 3, (1, 100)))
    overheads = {}
    for name in ("size", "burstiness"):
        spec = QuerySpec(k=3, window=(1, 100), measure=get_measure(name), mode="optimize")
        overheads[name] = best_of(lambda: run_txcq(g, spec)) / base
        assert overheads[name] <= 2.0, name
        assert run_txcq(g, spec).stats.x_evaluations == zone_count, name  # one evaluation per zone
    print(
        f"criterion 5: otcd/tcd wall ratio {wall_ratio:.3f} <= 0.20; "
        f"optimize overhead size {overheads['size']:.2f}x, "
        f"burstiness {overheads['burstiness']:.2f}x (<= 2x)"
    )


def test_criterion_06_constrain_search_stays_frugal():
    rng = random.Random(606)
    measures = [get_measure(n) for n in ("growth_rate", "burstiness", "engagement")]
    instances = []
    seed = 0
    while len(instances) < 30:
        seed += 1
        g = generate_synthetic(
            rng.randint(8, 20), rng.randint(20, 120), rng.randint(5, 14),
            model=MODELS[seed % 3], seed=60_000 + seed,
        )
        k = rng.choice((2, 3))
        zones = run_otcd_star(g, k, (1, 14))
        if zones:
            instances.append((g, k, zones))
    zones_checked = 0
    within_pq = 0
    for g, k, zones in instances:
        by_tti = {z.tti: z for z in zones}
        for m in measures:
            vals = sorted(_zone_values(g, zones, m))
            for sigma in {vals[0], vals[len(vals) // 2]}:
                spec = QuerySpec(k=k, window=(1, 14), measure=m, mode="constrain", sigma=sigma)
                result = run_txcq(g, spec)
                for tti, count in result.stats.zone_eval_counts.items():
                    dims = rect_dims(by_tti[tti])
                    assert count <= sum(w + h for w, h in dims), (m.name, sigma, tti)
                    p, q = max(w for w, _ in dims), max(h for _, h in dims)
                    within_pq += count <= p + q
                    zones_checked += 1
    assert zones_checked > 100
    print(
        f"criterion 6: {zones_checked} zone walks within the rectangle-sum budget; "
        f"{within_pq / zones_checked:.0%} also within p+q"
    )


def test_criterion_07_scaling_trends():
    g = generate_synthetic(600, 9000, 60, model="planted-community", seed=7)
    # the trend in k is gated on the walk's work units, which do not depend
    # on the host; the walls are printed, not asserted, since a 10% bound on
    # walls of about 1.5 ms failed about 2 runs in 100 on timer noise alone
    runs = {k: run_otcd(g, k, (1, 60)).stats for k in range(2, 7)}
    for k in range(3, 7):
        for counter in ("decompositions", "cells_visited"):
            assert getattr(runs[k], counter) <= getattr(runs[k - 1], counter), (k, counter)
    walls = {k: stats.wall_ms for k, stats in runs.items()}

    g2 = generate_synthetic(2800, 20000, 200, model="planted-community", seed=3)
    spans = (25, 50, 100, 200)
    visits = [run_otcd(g2, 3, (1, s)).stats.cells_visited for s in spans]
    xs = [math.log(s) for s in spans]
    ys = [math.log(v) for v in visits]
    xbar, ybar = statistics.fmean(xs), statistics.fmean(ys)
    slope = sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys)) / sum(
        (x - xbar) ** 2 for x in xs
    )
    assert slope < 2.0
    ks = ", ".join(f"k={k}:{walls[k]:.1f}ms" for k in sorted(walls))
    print(
        f"criterion 7: work non-increasing in k (walls {ks}); "
        f"visited cells {visits} over spans {list(spans)}, log-log slope {slope:.2f} < 2"
    )


def test_criterion_08_lti_counts_stay_near_zone_counts():
    rng = random.Random(808)
    ratios = []
    seed = 0
    while len(ratios) < 24:
        seed += 1
        g = generate_synthetic(
            rng.randint(30, 60), rng.randint(200, 500), rng.randint(15, 25),
            model="planted-community", seed=80_000 + seed,
        )
        zones = run_otcd_star(g, rng.choice((2, 3)), (1, 25))
        if not zones:
            continue
        lti_count = sum(len(z.ltis) for z in zones)
        assert lti_count >= len(zones)
        ratios.append(lti_count / len(zones))
    median = statistics.median(ratios)
    print(
        f"criterion 8: lti_count >= zone_count on all 24 planted instances; "
        f"median ratio {median:.2f} (reported; 1.2 is the informal target)"
    )


def test_criterion_09_sensitivity_contracts_hold():
    rng = random.Random(93)
    measures = [get_measure(name) for name in list_measures()]
    pairs = checks = 0
    cache = {}
    seed = 0
    while pairs < 10_000:
        seed += 1
        assert seed < 5_000, "corpus exhausted before reaching 10k pairs"
        n_t = rng.randint(3, 14)
        g = generate_synthetic(
            rng.randint(4, 12), rng.randint(6, 60), n_t,
            model=MODELS[seed % 3], seed=1_000_000 + seed,
        )
        k = rng.choice((2, 3))
        zones = run_otcd_star(g, k, (1, n_t))
        if not zones:
            continue
        ctx = EvalContext(graph=g, all_zones=tuple(zones))
        for zone_idx, zone in enumerate(zones):
            members = list(zone.members)
            nested = [
                (outer, inner)
                for outer in members
                for inner in members
                if outer != inner and outer.contains(inner)
            ]
            if not nested:
                continue
            sample = rng.sample(nested, min(len(nested), 60))
            zctx = ctx.with_zone(zone)
            for outer, inner in sample:
                pairs += 1
                for m in measures:
                    def val(interval):
                        key = (seed, zone_idx, m.name, interval)
                        if key not in cache:
                            cache[key] = evaluate(m, zone.core, interval, zctx)
                        return cache[key]
                    if m.sensitivity == "insensitive":
                        assert val(inner) == val(outer), (m.name, seed, zone_idx)
                    else:
                        assert m.sensitivity == "monotonic" and m.improves_on == "shrink"
                        rel = compare(m, val(inner), val(outer))
                        assert rel != "worse", (m.name, seed, zone_idx, outer, inner)
                    checks += 1
                if pairs >= 10_000:
                    break
            if pairs >= 10_000:
                break
    print(f"criterion 9: {pairs} nested pairs, {checks} measure checks, all directions hold")
