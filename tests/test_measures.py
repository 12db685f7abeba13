"""Measure evaluation, classification, and the sensitivity checker."""

import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import tkcore.graph
import tkcore.measures
import tkcore.txcq

from tkcore import (
    ContractViolation,
    CoreSnapshot,
    EvalContext,
    MeasureDescriptor,
    MeasureValueError,
    QuerySpec,
    TemporalGraph,
    TimeInterval,
    UndefinedMeasureValue,
    ZoneRecord,
    brute_force_txcq,
    canonical_result,
    check_measure_sensitivity,
    compare,
    evaluate,
    get_measure,
    list_measures,
    reference_core,
    register_udf,
    run_otcd_star,
    run_tcd_star,
    run_txcq,
    run_txcq_walk,
    satisfies,
)

from conftest import random_instance, small_graphs

BUILTINS = [
    "burstiness",
    "engagement",
    "frequency",
    "growth_rate",
    "periodicity",
    "persistence",
    "size",
    "time_span",
]


@pytest.fixture
def g0_zones(g0):
    return tuple(run_otcd_star(g0, 2, (1, 5)))


def ctx_for(g, zones, measure, zone):
    return EvalContext(graph=g, all_zones=zones, params=dict(measure.params)).with_zone(zone)


def value(g, zones, name, tti, window=None):
    m = get_measure(name)
    zone = next(z for z in zones if z.tti == TimeInterval(*tti))
    return evaluate(m, zone.core, window or tti, ctx_for(g, zones, m, zone))


def test_registry_lists_the_builtins():
    assert [n for n in list_measures() if n in BUILTINS] == BUILTINS
    with pytest.raises(KeyError):
        get_measure("votes")


def test_values_on_the_worked_example(g0, g0_zones):
    # the three zones are the same triangle over windows [1,3], [1,5], [2,5]
    assert value(g0, g0_zones, "size", (1, 3)) == 3
    assert value(g0, g0_zones, "frequency", (1, 3)) == 1
    assert value(g0, g0_zones, "time_span", (1, 3)) == 2
    assert value(g0, g0_zones, "time_span", (1, 5)) == 4
    assert value(g0, g0_zones, "time_span", (2, 5)) == 3
    assert value(g0, g0_zones, "persistence", (1, 3)) == 1
    assert value(g0, g0_zones, "persistence", (1, 5)) == 0
    assert value(g0, g0_zones, "periodicity", (1, 3)) == 1
    assert value(g0, g0_zones, "growth_rate", (1, 3)) == Fraction(1)
    assert value(g0, g0_zones, "growth_rate", (1, 5)) == Fraction(3, 5)
    assert value(g0, g0_zones, "growth_rate", (2, 5)) == Fraction(3, 4)
    assert value(g0, g0_zones, "burstiness", (1, 3)) == Fraction(2)
    assert value(g0, g0_zones, "burstiness", (2, 5)) == Fraction(3, 2)
    assert value(g0, g0_zones, "engagement", (1, 3)) == Fraction(1)
    assert value(g0, g0_zones, "engagement", (1, 5)) == Fraction(2, 3)


def test_monotonic_values_change_inside_a_zone(g0, g0_zones):
    # same core, wider member window: shrink-improving values drop
    assert value(g0, g0_zones, "growth_rate", (1, 3), window=(1, 4)) == Fraction(3, 4)
    assert value(g0, g0_zones, "burstiness", (1, 3), window=(1, 4)) == Fraction(3, 2)
    assert value(g0, g0_zones, "engagement", (1, 3), window=(1, 4)) == Fraction(2, 3)


def test_degree_based_values_match_the_edge_scans():
    # burstiness reads the captured degrees and engagement the graph's
    # timestamp index; both must equal the scans over the edges they replace
    rng = random.Random(2718)
    checked = 0
    for trial in range(30):
        g = random_instance(rng, 3100 + trial)
        zones = tuple(run_otcd_star(g, rng.choice((2, 3)), (1, 14)))
        for zone in zones:
            core = zone.core
            for w in zone.members:
                ctx = ctx_for(g, zones, get_measure("engagement"), zone)
                ambient = {v: set() for v in core.vertices}
                for u, v, t in g.edges:
                    if w.ts <= t <= w.te:
                        ambient.setdefault(u, set()).add(v)
                        ambient.setdefault(v, set()).add(u)
                want = min(Fraction(len(core.neighbors(v)), len(ambient[v])) for v in core.vertices)
                assert evaluate(get_measure("engagement"), core, w, ctx) == want
                assert evaluate(get_measure("burstiness"), core, w, ctx) == Fraction(
                    2 * len(core.pair_counts), w.duration
                )
                checked += 1
    assert checked > 100


@st.composite
def degree_cases(draw):
    """(graph, core, window): a dense graph with parallel edges, the same
    with its stamps spread by gaps of up to 30, or a graph of few vertices
    whose pairs carry up to 40 stamps each; the core of one window of it at
    k in 1..3; and an arbitrary window, which may hold no stamp, lie inside
    a gap or reach past the last stamp."""
    kind = draw(st.sampled_from(("dense", "gapped", "many-stamps")))
    if kind == "many-stamps":
        n = draw(st.integers(min_value=2, max_value=4))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        stamps = st.lists(st.integers(min_value=1, max_value=60), min_size=1, max_size=40)
        g = TemporalGraph.from_edges(n, [(u, v, t) for u, v in pairs for t in draw(stamps)])
    else:
        g = draw(small_graphs(max_repeat=3))
        if kind == "gapped":
            raw, t = {}, draw(st.integers(min_value=-5, max_value=5))
            for stamp in g.timestamps:
                t += draw(st.integers(min_value=1, max_value=30))
                raw[stamp] = t
            g = TemporalGraph.from_edges(g.vertex_count, [(u, v, raw[t]) for u, v, t in g.edges])
    lo, hi = (g.min_t - 3, g.max_t + 3) if g.edges else (-3, 3)

    def window():
        ts = draw(st.integers(min_value=lo, max_value=hi))
        return TimeInterval(ts, draw(st.integers(min_value=ts, max_value=hi)))

    core = reference_core(g, draw(st.integers(min_value=1, max_value=3)), window())
    return g, core, window()


@pytest.mark.parametrize("slice_per_neighbor", [0, tkcore.graph.SLICE_PER_NEIGHBOR, 10**9])
@given(case=degree_cases())
@settings(max_examples=150, deadline=None)
def test_degree_in_and_engagement_match_an_edge_scan(slice_per_neighbor, case):
    # `degree_in` slices the vertex's timeline for short windows and bisects
    # per neighbor for long ones; a constant of 0 takes the second path for
    # every window holding an edge and 10**9 the first for every window
    g, core, w = case
    ambient = {v: set() for v in range(g.vertex_count)}
    for u, v, t in g.edges:
        if w.ts <= t <= w.te:
            ambient[u].add(v)
            ambient[v].add(u)
    with mock.patch.object(tkcore.graph, "SLICE_PER_NEIGHBOR", slice_per_neighbor):
        assert {v: g.degree_in(v, w) for v in ambient} == {v: len(s) for v, s in ambient.items()}
        if core.is_empty:
            return
        m = get_measure("engagement")
        ctx = EvalContext(graph=g)
        if any(not ambient[v] for v in core.vertices):
            with pytest.raises(ZeroDivisionError):
                evaluate(m, core, w, ctx)
        else:
            want = min(Fraction(len(core.neighbors(v)), len(ambient[v])) for v in core.vertices)
            assert evaluate(m, core, w, ctx) == want


@pytest.mark.parametrize("slice_per_neighbor", [0, tkcore.graph.SLICE_PER_NEIGHBOR, 10**9])
@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None)
def test_bounded_engagement_matches_an_unbounded_scan(slice_per_neighbor, seed):
    # every zone's core, at its TTI, at windows that hold it and at windows
    # that do not: the scan stops early only on the first two, and its value
    # is the least ratio over every vertex, off an edge scan, either way
    rng = random.Random(seed)
    g = random_instance(rng, seed, max_vertices=16, max_edges=120)
    zones = run_otcd_star(g, rng.choice((1, 2, 3)), (g.min_t, g.max_t))
    m, ctx = get_measure("engagement"), EvalContext(graph=g)
    with mock.patch.object(tkcore.graph, "SLICE_PER_NEIGHBOR", slice_per_neighbor):
        for core in (z.core for z in zones):
            (ts, te), lo, hi = core.tti, g.min_t - 2, g.max_t + 2
            for w in (core.tti, (rng.randint(lo, ts), rng.randint(te, hi)), (rng.randint(ts + 1, hi), hi)):
                ambient = {v: set() for v in core.vertices}
                for u, v, t in g.edges:
                    if w[0] <= t <= w[1]:
                        for x, y in ((u, v), (v, u)):
                            if x in ambient:
                                ambient[x].add(y)
                if not all(ambient.values()):
                    with pytest.raises(ZeroDivisionError):
                        evaluate(m, core, w, ctx)
                else:
                    want = min(Fraction(len(core.neighbors(v)), len(ambient[v])) for v in core.vertices)
                    assert evaluate(m, core, w, ctx) == want, (core.tti, w)


def test_engagement_stops_at_a_bound_past_the_least_ratio():
    # a triangle at t=1 whose vertex 0 also meets vertex 3 there: 0's ratio
    # 2/3 is the least, and the bounds of 1 and 2 (2/2) exceed it, so their
    # window degrees are never read
    g = TemporalGraph.from_edges(4, [(0, 1, 1), (1, 2, 1), (0, 2, 1), (0, 3, 1), (1, 2, 5)])
    core = reference_core(g, 2, (1, 1))
    read = []
    with mock.patch.object(TemporalGraph, "degree_in", lambda self, v, w: read.append(v) or (3 if v == 0 else 2)):
        assert evaluate(get_measure("engagement"), core, (1, 1), EvalContext(graph=g)) == Fraction(2, 3)
        assert read == [0]
        # a window that does not hold the TTI reads every vertex
        read.clear()
        assert evaluate(get_measure("engagement"), core, (2, 5), EvalContext(graph=g)) == Fraction(2, 3)
        assert sorted(read) == [0, 1, 2]


def test_engagement_stops_at_a_bound_that_ties_the_least_ratio():
    # a triangle at t=1 where vertex 0 also meets 3 at t=1 and vertex 1
    # meets 4 at t=9: both bound at 2/3, and 0's ratio at (1, 1) is 2/3, so
    # the scan stops at 1, whose ratio cannot undercut it; the bounds are
    # compared as integers, so no graph size changes the stop
    g = TemporalGraph.from_edges(5, [(0, 1, 1), (1, 2, 1), (0, 2, 1), (0, 3, 1), (1, 4, 9)])
    core, m = reference_core(g, 2, (1, 1)), get_measure("engagement")
    read = []
    with counting_degree_in(read):
        assert evaluate(m, core, (1, 1), EvalContext(graph=g)) == Fraction(2, 3)
    assert read == [0]


def ratio_pairs():
    # (inner, count) pairs with counts up to 2**40: scaled copies of one
    # ratio, which tie, and neighbors (c - 1) / c and c / (c + 1), whose
    # floats can tie once c passes 2**26
    scaled = st.builds(
        lambda n, d, m: (min(n, d) * m, d * m),
        st.integers(0, 2**20), st.integers(1, 2**20), st.integers(1, 2**20),
    )
    near = st.integers(2, 2**40 - 1).flatmap(lambda c: st.sampled_from(((c - 1, c), (c, c + 1))))
    return st.lists(st.one_of(scaled, near), min_size=1, max_size=12)


@given(pairs=ratio_pairs())
@example(pairs=[(2**40 - 2, 2**40 - 1), (2**40 - 1, 2**40), (1, 2), (2**39, 2**40)])
@settings(max_examples=300, deadline=None)
def test_engagement_bound_keys_order_ratios_exactly(pairs):
    inners, counts = zip(*pairs)
    keys = tuple(tkcore.measures._bound_keys(inners, counts))
    ratios = [Fraction(inner, count) for inner, count in pairs]
    for i, (key, ratio) in enumerate(zip(keys, ratios)):
        for other_key, other in zip(keys[i:], ratios[i:]):
            assert (key < other_key, key == other_key) == (ratio < other, ratio == other)


@given(n=st.integers(0, 2**70), d=st.integers(1, 2**70), other=st.fractions())
@example(n=0, d=5, other=Fraction(0))
@example(n=6, d=4, other=Fraction(-3, 2))
@settings(max_examples=300, deadline=None)
def test_ratio_is_the_fraction_it_stands_for(n, d, other):
    # `growth_rate` and `burstiness` build their values with `_ratio`,
    # which fills a Fraction's slots without Fraction.__new__
    ratio, want = tkcore.measures._ratio(n, d), Fraction(n, d)
    assert type(ratio) is Fraction
    assert (ratio.numerator, ratio.denominator) == (want.numerator, want.denominator)
    assert ratio == want and hash(ratio) == hash(want) and str(ratio) == str(want)
    assert (ratio < other, ratio == other) == (want < other, want == other)
    assert (ratio + other, ratio - other, ratio * other) == (want + other, want - other, want * other)
    if other:
        assert ratio / other == want / other


def test_engagement_reads_the_graph_it_is_evaluated_against():
    # a triangle at t=1 whose vertex 2 also meets 3, 4 and 5 at t=1 in g2:
    # evaluated against its own graph first, each core must not carry that
    # graph's neighbor counts into g2, where 2's ratio is 2/5
    triangle = [(0, 1, 1), (1, 2, 1), (0, 2, 1)]
    g1 = TemporalGraph.from_edges(6, triangle)
    g2 = TemporalGraph.from_edges(6, triangle + [(2, 3, 1), (2, 4, 1), (2, 5, 1)])
    full, m = (1, 1), get_measure("engagement")
    indexed = run_txcq(g1, QuerySpec(2, full))
    assert indexed.stats.index == "built"
    explicit, walked = reference_core(g1, 2, full), next(iter(run_otcd_star(g1, 2, full))).core
    for core in (explicit, walked, indexed.entries[0].zone.core):
        for g, want in ((g1, Fraction(1)), (g2, Fraction(2, 5))):
            for w in (full, (0, 2)):
                assert evaluate(m, core, w, EvalContext(graph=g)) == want == least_ratio_by_edge_scan(g, core, w)
        # a capture keeps its own graph's values, an explicit snapshot none
        kept = {"engagement_order", "engagement_at_tti"} & vars(core).keys()
        assert kept == (set() if core is explicit else {"engagement_order", "engagement_at_tti"})


def least_ratio_by_edge_scan(g, core, w):
    ambient = {v: set() for v in core.vertices}
    for u, v, t in g.edges:
        if w[0] <= t <= w[1]:
            for x, y in ((u, v), (v, u)):
                if x in ambient:
                    ambient[x].add(y)
    return min(Fraction(len(core.neighbors(v)), len(ambient[v])) for v in core.vertices)


def counting_degree_in(read):
    real = TemporalGraph.degree_in
    return mock.patch.object(TemporalGraph, "degree_in", lambda self, v, w: read.append(v) or real(self, v, w))


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None)
def test_engagement_keeps_its_value_at_each_core_tti(seed):
    # on both routes, a zone's core keeps its value at its own TTI: the
    # second evaluation there reads no window degree, and both equal the
    # least ratio off an edge scan
    rng = random.Random(seed)
    g = random_instance(rng, seed, max_vertices=16, max_edges=120)
    k, full, m = rng.choice((1, 2, 3)), (g.min_t, g.max_t), get_measure("engagement")
    res = run_txcq(g, QuerySpec(k, full))
    assert res.stats.algorithm == "core-index"
    for zones in (tuple(e.zone for e in res.entries), tuple(run_otcd_star(g, k, full))):
        for zone in zones:
            ctx = ctx_for(g, zones, m, zone)
            read = []
            with counting_degree_in(read):
                first = evaluate(m, zone.core, zone.tti, ctx)
                made = len(read)
                second = evaluate(m, zone.core, zone.tti, ctx)
            assert first == second == least_ratio_by_edge_scan(g, zone.core, zone.tti)
            assert made and len(read) == made


def test_engagement_keeps_nothing_off_the_cores_own_graph(g0):
    # an explicit snapshot has no graph of its own, and a capture evaluated
    # against another graph (here, one with the same edges) must not keep
    # that graph's value: both read every needed degree on each evaluation
    m = get_measure("engagement")
    explicit = reference_core(g0, 2, (1, 3))
    captured = next(z.core for z in run_otcd_star(g0, 2, (1, 3)) if z.tti == (1, 3))
    twin = TemporalGraph.from_edges(g0.vertex_count, g0.edges)
    for core, g in ((explicit, g0), (captured, twin)):
        read = []
        with counting_degree_in(read):
            values = [evaluate(m, core, core.tti, EvalContext(graph=g)) for _ in range(2)]
        assert values == [Fraction(1)] * 2
        assert read and read[: len(read) // 2] * 2 == read
        assert not {"engagement_order", "engagement_at_tti"} & vars(core).keys()
    evaluate(m, captured, captured.tti, EvalContext(graph=g0))
    assert vars(captured)["engagement_at_tti"] == Fraction(1)
    # a window that holds the TTI but is not it keeps nothing either
    evaluate(m, explicit, (1, 4), EvalContext(graph=g0))
    assert "engagement_at_tti" not in vars(explicit)


@pytest.mark.parametrize("mode", ["optimize", "constrain"])
@given(g=small_graphs(max_repeat=2), sigma=st.sampled_from((Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), 1)))
@settings(max_examples=60, deadline=None)
def test_engagement_equals_a_full_scan_at_every_evaluated_window(mode, g, sigma):
    # every window a query evaluates, on both routes, holds its zone's TTI,
    # so the scan may stop early at each; its value is the least ratio over
    # every core vertex all the same
    m = get_measure("engagement")
    real = tkcore.txcq.evaluate
    seen = []

    def checked(measure, core, w, ctx):
        value = real(measure, core, w, ctx)
        seen.append((core, w, value))
        return value

    spec = QuerySpec(2, (1, 8), m, mode, sigma if mode == "constrain" else None)
    with mock.patch.object(tkcore.txcq, "evaluate", checked):
        for run in (run_txcq, run_txcq_walk):
            run(g, spec)
    for core, w, value in seen:
        assert value == least_ratio_by_edge_scan(g, core, w), (core.tti, w)


def test_frequency_reads_one_count_per_core():
    # frequency reads the least parallel-edge count, which equals the least
    # of `pair_counts` on captured and explicit snapshots, and builds no
    # Counter
    rng = random.Random(1618)
    m = get_measure("frequency")
    for trial in range(20):
        g = random_instance(rng, 5200 + trial, max_vertices=10, max_edges=80)
        zones = tuple(run_otcd_star(g, 2, (g.min_t, g.max_t)))
        for zone in zones:
            core = zone.core
            explicit = reference_core(g, 2, zone.tti)
            got = evaluate(m, core, zone.tti, ctx_for(g, zones, m, zone))
            assert "pair_counts" not in vars(core)
            assert got == explicit.least_pair_count == min(core.pair_counts.values())
            assert min(explicit.pair_counts.values()) == got


def test_engagement_has_no_value_where_a_core_vertex_has_no_neighbor(g0):
    # the triangle at [1, 3]: in window [4, 4] only c has a neighbor
    core = reference_core(g0, 2, (1, 3))
    with pytest.raises(ZeroDivisionError):
        evaluate(get_measure("engagement"), core, (4, 4), EvalContext(graph=g0))
    assert g0.degree_in(0, (4, 4)) == 0 and g0.degree_in(2, (4, 4)) == 1
    assert g0.degree_in(3, (5, 9)) == 0 and g0.degree_in(0, (5, 9)) == 1  # past the last stamp


def test_frequency_counts_the_weakest_pair():
    g = TemporalGraph.from_edges(3, [(0, 1, 1), (0, 1, 2), (1, 2, 1), (0, 2, 2), (0, 2, 3)])
    zones = tuple(run_otcd_star(g, 2, (1, 3)))
    wide = next(z for z in zones if z.core.edge_count == 5)
    m = get_measure("frequency")
    assert evaluate(m, wide.core, wide.tti, ctx_for(g, zones, m, wide)) == 1


def test_periodicity_counts_gap_separated_repeats(g0):
    core = reference_core(g0, 2, (1, 3))
    def zone_at(ts, te):
        return ZoneRecord(core=core, tti=TimeInterval(ts, te), ltis=(TimeInterval(ts, te),))

    m = get_measure("periodicity").with_params(p=2)
    chain = (zone_at(1, 2), zone_at(5, 6), zone_at(9, 10))
    ctx = EvalContext(graph=g0, all_zones=chain, params=dict(m.params)).with_zone(chain[0])
    assert evaluate(m, core, (1, 2), ctx) == 3

    crowded = (zone_at(1, 4), zone_at(5, 6))  # gap of 1 < p
    ctx = EvalContext(graph=g0, all_zones=crowded, params=dict(m.params)).with_zone(crowded[0])
    assert evaluate(m, core, (1, 4), ctx) == 1


def scanned_periodicity(core, zones, p):
    """`periodicity` as each evaluation once worked it out: every zone of
    the query with the core's vertex set, by ascending TTI end, taken
    greedily at gaps of at least `p`."""
    ttis = sorted((z.tti for z in zones if z.core.vertices == core.vertices), key=lambda iv: iv.te)
    count, last_end = 0, None
    for tti in ttis:
        if last_end is None or tti.ts - last_end >= p:
            count += 1
            last_end = tti.te
    return count


@given(seed=st.integers(min_value=0, max_value=10_000), p=st.integers(min_value=0, max_value=3))
@settings(max_examples=60, deadline=None)
def test_periodicity_with_and_without_a_memo_equals_the_scan(seed, p):
    # each zone's core, and cores absent from the zones (other k, other
    # windows), whose vertex set may match some zones' or none: a context
    # without a memo scans, one with a query's memo reads the grouping, and
    # both give the scan's value
    rng = random.Random(seed)
    g = random_instance(rng, seed, max_vertices=10, max_edges=80)
    k = rng.choice((1, 2))
    m = get_measure("periodicity").with_params(p=p)
    zones = tuple(run_otcd_star(g, k, (g.min_t, g.max_t)))
    absent = [reference_core(g, k + rng.choice((0, 1)), (ts, rng.randint(ts, g.max_t)))
              for ts in (rng.randint(g.min_t, g.max_t) for _ in range(4))]
    absent = [core for core in absent if core.edge_count and all(core is not z.core for z in zones)]
    base = EvalContext(graph=g, all_zones=zones, params=dict(m.params))
    shared = base._replace(memo={})
    for core in [z.core for z in zones] + absent:
        want = scanned_periodicity(core, zones, p)
        assert evaluate(m, core, core.tti, base) == want
        assert evaluate(m, core, core.tti, shared) == want
    # contexts that share the memo but replace the gap or the zones read
    # groups built for their own, not for the first caller's
    for other_zones, other_p in ((zones, p + 1), (zones[::2], p), (zones, p)):
        ctx = shared._replace(all_zones=other_zones, params={"p": other_p})
        for core in [z.core for z in zones] + absent:
            assert evaluate(m, core, core.tti, ctx) == scanned_periodicity(core, other_zones, other_p)


class CountedSet(frozenset):
    """A vertex set that counts its `==` comparisons."""

    compared = 0

    def __eq__(self, other):
        CountedSet.compared += 1
        return frozenset.__eq__(self, other)

    __hash__ = frozenset.__hash__


def test_periodicity_compares_vertex_sets_linearly_in_zones():
    # z zones over four vertex sets of three vertices each, every core with
    # its own set object: one query's evaluations compare sets once per zone
    # to group them and once per zone to read a group, where a scan per
    # evaluation compares every pair
    m = get_measure("periodicity")
    for z in (40, 80, 160):
        zones = []
        for i in range(z):
            vertices = CountedSet({0, 1, 2 + i % 4})
            tti = TimeInterval(3 * i + 1, 3 * i + 2)
            core = CoreSnapshot(vertices, [(0, 1, 3 * i + 1)], tti)
            zones.append(ZoneRecord(core, tti, (tti,)))
        base = EvalContext(all_zones=tuple(zones), params=dict(m.params))

        def comparisons(memo):
            CountedSet.compared = 0
            ctx = base._replace(memo=memo)
            values = [evaluate(m, zone.core, zone.tti, ctx.with_zone(zone)) for zone in zones]
            assert values == [z // 4] * z
            return CountedSet.compared

        assert comparisons({}) <= 2 * z
        assert comparisons(None) == z * z


@pytest.mark.parametrize("p", [1, 2, 3])
@given(
    stamps=st.lists(st.integers(min_value=1, max_value=12), min_size=1, max_size=6, unique=True),
    noise=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(1, 12)), max_size=12),
    sigma=st.integers(min_value=1, max_value=4),
)
@settings(max_examples=50, deadline=None)
def test_periodicity_agrees_with_the_oracle_where_zones_share_a_vertex_set(p, stamps, noise, sigma):
    # one triangle at several stamps, plus noise edges: many zones share the
    # triangle's vertex set, and the noise adds zones that collide with it
    # in vertex count or not
    edges = [(u, v, t) for t in stamps for u, v in ((0, 1), (1, 2), (0, 2))]
    edges += [(u, v, t) for u, v, t in noise if u != v]
    g = TemporalGraph.from_edges(6, edges)
    m = get_measure("periodicity").with_params(p=p)
    for mode in ("optimize", "constrain"):
        spec = QuerySpec(2, (1, 12), m, mode, sigma if mode == "constrain" else None)
        want = canonical_result(brute_force_txcq(g, spec), mode)
        index, walk = run_txcq(g, spec), run_txcq_walk(g, spec)
        assert canonical_result(index, mode) == canonical_result(walk, mode) == want, mode
        assert [(e.zone.tti, e.x_value) for e in index.entries] == [(e.zone.tti, e.x_value) for e in walk.entries]


def test_persistence_takes_the_best_loose_interval(g0):
    core = reference_core(g0, 2, (1, 3))
    zone = ZoneRecord(
        core=core,
        tti=TimeInterval(4, 5),
        ltis=(TimeInterval(3, 8), TimeInterval(2, 7), TimeInterval(1, 6)),
    )
    m = get_measure("persistence")
    ctx = EvalContext(graph=g0, all_zones=(zone,), params={}).with_zone(zone)
    assert evaluate(m, core, zone.tti, ctx) == 4


def test_context_requirements_are_enforced(g0, g0_zones):
    zone = g0_zones[0]
    with pytest.raises(ContractViolation):
        evaluate(get_measure("persistence"), zone.core, zone.tti, EvalContext())
    with pytest.raises(ContractViolation):
        evaluate(get_measure("periodicity"), zone.core, zone.tti, EvalContext())
    with pytest.raises(ContractViolation):
        evaluate(get_measure("engagement"), zone.core, zone.tti, EvalContext())


def test_empty_cores_have_no_value(g0):
    empty = reference_core(g0, 3, (1, 5))
    with pytest.raises(UndefinedMeasureValue):
        evaluate(get_measure("size"), empty, (1, 5), EvalContext(graph=g0))


def test_compare_respects_measure_orientation():
    higher = get_measure("frequency")
    lower = get_measure("size")
    assert compare(higher, 3, 2) == "better"
    assert compare(higher, 2, 3) == "worse"
    assert compare(higher, 2, 2) == "equal"
    assert compare(lower, 3, 2) == "worse"
    assert compare(lower, 2, 3) == "better"
    assert satisfies(higher, Fraction(3, 2), 1)
    assert satisfies(higher, 1, 1)
    assert not satisfies(higher, Fraction(1, 2), 1)
    assert satisfies(lower, 2, 3)
    assert not satisfies(lower, 4, 3)
    with pytest.raises(MeasureValueError):
        compare(higher, 1, "fast")


@pytest.mark.parametrize("run", [run_txcq, run_txcq_walk, run_tcd_star, brute_force_txcq])
@pytest.mark.parametrize("better", ["lower", "higher"])
@pytest.mark.parametrize("mode, sigma", [("optimize", None), ("constrain", Fraction(1, 2))])
def test_a_nan_measure_value_is_refused(g0, run, better, mode, sigma):
    # NaN is neither equal to, above nor below anything, so no optimum or
    # threshold can place it; g0's three zones make an optimize compare
    nan = MeasureDescriptor("nan", "insensitive", better, lambda core, w, ctx: float("nan"))
    with pytest.raises(MeasureValueError):
        run(g0, QuerySpec(2, (1, 5), nan, mode, sigma))
    # a lone zone of one member is never compared, and is refused all the same
    triangle = TemporalGraph.from_edges(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])
    for sensitivity, improves_on in (("insensitive", None), ("monotonic", "shrink"), ("nonmonotonic", None)):
        lone = MeasureDescriptor("nan", sensitivity, better, nan.evaluator, improves_on)
        with pytest.raises(MeasureValueError):
            run(triangle, QuerySpec(2, (1, 1), lone, mode, sigma))
    with pytest.raises(MeasureValueError):
        compare(nan, 1, float("nan"))
    assert compare(nan, 1.5, 1) == ("better" if better == "higher" else "worse")
    assert compare(nan, float("inf"), float("inf")) == "equal"


@pytest.mark.parametrize("sensitivity", ["insensitive", "nonmonotonic"])
@pytest.mark.parametrize("mode, sigma", [("optimize", None), ("constrain", frozenset({1}))])
def test_values_that_do_not_order_are_refused_on_every_route(sensitivity, mode, sigma):
    # sets order by inclusion, so {1} and {5} are neither equal nor either
    # above the other: the oracle cannot place them, and no engine may
    # answer where it refuses.  The zones at (1, 1), (1, 5) and (5, 5) take
    # {1}, {1} and {5}, so an optimize meets {5} against {1}, and a
    # constrain places {5} against the threshold {1}
    g = TemporalGraph.from_edges(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1), (0, 1, 5), (1, 2, 5), (0, 2, 5)])
    start = MeasureDescriptor("start", sensitivity, "higher", lambda core, w, ctx: frozenset({core.tti.ts}))
    spec = QuerySpec(2, (1, 5), start, mode, sigma)
    routes = [run_txcq, run_txcq_walk, brute_force_txcq]
    if sensitivity == "nonmonotonic":
        routes.append(run_tcd_star)
    for run in routes:
        with pytest.raises(MeasureValueError):
            run(g, spec)


def test_descriptor_declaration_is_validated():
    ok = MeasureDescriptor("udf_ok", "monotonic", "higher", lambda c, w, x: 1, improves_on="shrink")
    assert ok.improves_on == "shrink"
    with pytest.raises(ValueError):
        MeasureDescriptor("udf_a", "sometimes", "higher", lambda c, w, x: 1)
    with pytest.raises(ValueError):
        MeasureDescriptor("udf_b", "monotonic", "higher", lambda c, w, x: 1)
    with pytest.raises(ValueError):
        MeasureDescriptor("udf_c", "insensitive", "higher", lambda c, w, x: 1, improves_on="shrink")
    with pytest.raises(ValueError):
        MeasureDescriptor("udf_d", "insensitive", "sideways", lambda c, w, x: 1)


def test_with_params_merges_without_mutating():
    base = get_measure("periodicity")
    tuned = base.with_params(p=3)
    assert tuned.params == {"p": 3}
    assert base.params == {"p": 1}
    assert tuned.name == base.name
    with pytest.raises(ValueError):
        get_measure("size").with_params(q=3)


def test_udf_registration_is_single_assignment():
    udf = MeasureDescriptor("edge_total_9f31", "insensitive", "higher", lambda c, w, x: c.edge_count)
    register_udf(udf)
    try:
        assert get_measure("edge_total_9f31") is udf
        with pytest.raises(ValueError):
            register_udf(udf)
        with pytest.raises(ValueError):
            register_udf(MeasureDescriptor("size", "insensitive", "higher", lambda c, w, x: 0))
    finally:
        from tkcore.measures import _REGISTRY

        _REGISTRY.pop("edge_total_9f31", None)


def test_sensitivity_checker_accepts_correct_declarations(g0, g0_zones):
    rng = random.Random(17)
    for name in BUILTINS:
        m = get_measure(name)
        assert check_measure_sensitivity(m, g0, g0_zones, rng=rng, samples=120) == []


def test_sensitivity_checker_flags_a_mislabeled_udf(g0, g0_zones):
    fake_insensitive = MeasureDescriptor(
        "bogus_span", "insensitive", "higher", lambda core, w, ctx: w.duration
    )
    rng = random.Random(17)
    complaints = check_measure_sensitivity(fake_insensitive, g0, g0_zones, rng=rng, samples=120)
    assert complaints
    assert "bogus_span" in complaints[0]

    wrong_direction = MeasureDescriptor(
        "backwards_span", "monotonic", "higher",
        lambda core, w, ctx: w.duration, improves_on="shrink",
    )
    complaints = check_measure_sensitivity(wrong_direction, g0, g0_zones, rng=rng, samples=120)
    assert complaints
