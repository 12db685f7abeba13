"""Zone location and the measured query strategies."""

import gc
import random
import sys
from fractions import Fraction
from operator import truediv

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from tkcore import (
    ContractViolation,
    CoreIndex,
    EvalContext,
    MeasureDescriptor,
    MemberSet,
    QueryResult,
    QuerySpec,
    QueryStats,
    ResultEntry,
    TEL,
    TemporalGraph,
    TimeInterval,
    ZoneRecord,
    brute_force_tcq,
    brute_force_txcq,
    canonical_result,
    generate_synthetic,
    get_measure,
    normalize_timestamps,
    reference_core,
    run_otcd,
    run_otcd_star,
    run_tcd,
    run_tcd_star,
    run_txcq,
    run_txcq_walk,
)
from tkcore import txcq
from tkcore.txcq import tmc_ls

from conftest import random_instance, rect_dims, small_graphs


def canon(result_or_none, mode):
    return canonical_result(result_or_none, mode)


# -- zone geometry --------------------------------------------------------


@pytest.fixture
def staircase_zone(g0):
    """Three overlapping rectangles sharing one tight corner at [4, 5]."""
    core = reference_core(g0, 2, (1, 3))
    return ZoneRecord(
        core=core,
        tti=TimeInterval(4, 5),
        ltis=(TimeInterval(3, 8), TimeInterval(2, 7), TimeInterval(1, 6)),
    )


def test_zone_rectangle_dimensions(staircase_zone):
    dims = dict(zip(staircase_zone.ltis, rect_dims(staircase_zone)))
    assert dims[TimeInterval(3, 8)][0] == 4
    assert dims[TimeInterval(3, 8)][1] == 2
    assert dims[TimeInterval(1, 6)][0] == 2
    assert dims[TimeInterval(1, 6)][1] == 4
    assert (max(w for w, _ in dims.values()), max(h for _, h in dims.values())) == (4, 4)
    assert sum(w + h for w, h in dims.values()) == 18


def test_zone_membership_is_the_rectangle_union(staircase_zone):
    z = staircase_zone
    members = z.members
    assert members.boxes == ((3, 4, 8, 8), (2, 4, 7, 7), (1, 4, 5, 6))  # one box per LTI
    assert (4, 5) in members  # the tight corner itself
    assert (1, 6) in members
    assert (2, 6) in members
    assert (1, 7) not in members  # outside every rectangle
    assert (5, 5) not in members  # does not contain the tight corner
    assert (4, 4) not in members
    listed = list(members)
    assert len(members) == len(listed) == len(set(listed)) == 13  # the boxes are disjoint
    assert listed == sorted(listed)
    union = {
        TimeInterval(ts, te) for l in z.ltis for ts in range(l.ts, 5) for te in range(5, l.te + 1)
    }
    assert set(listed) == union
    grid = [(ts, te) for ts in range(0, 7) for te in range(3, 10)]
    assert [w for w in grid if w in members] == [w for w in grid if TimeInterval(*w) in union]


_boxes = st.lists(
    st.tuples(*[st.integers(min_value=0, max_value=6)] * 4).map(
        lambda b: (min(b[0], b[1]), max(b[0], b[1]), min(b[2], b[3]), max(b[2], b[3]))
    ),
    max_size=6,
)


def disjoint(boxes) -> list:
    """`boxes`, less each that overlaps an earlier one."""
    kept = []
    for a, b, c, d in boxes:
        if not any(a <= q and p <= b and c <= s and r <= d for p, q, r, s in kept):
            kept.append((a, b, c, d))
    return kept


@given(boxes=_boxes)
@settings(max_examples=60, deadline=None)
def test_member_set_iterates_disjoint_boxes_ascending(boxes):
    kept = disjoint(boxes)
    members = MemberSet(tuple(kept))
    listed = list(members)
    assert len(members) == len(listed) == len(set(listed))
    assert listed == sorted(listed)
    assert bool(members) == bool(listed)
    grid = [(ts, te) for ts in range(-1, 8) for te in range(-1, 8)]
    assert {w for w in grid if w in members} == set(listed)


def recut(boxes, rng) -> tuple:
    """The intervals of disjoint `boxes`, cut into other boxes in another order."""
    out = []
    for box in boxes:
        pieces = [box]
        for _ in range(rng.randrange(4)):
            a, b, c, d = pieces.pop(rng.randrange(len(pieces)))
            if a < b and (c == d or rng.random() < 0.5):
                m = rng.randrange(a, b)
                pieces += [(a, m, c, d), (m + 1, b, c, d)]
            elif c < d:
                m = rng.randrange(c, d)
                pieces += [(a, b, c, m), (a, b, m + 1, d)]
            else:
                pieces.append((a, b, c, d))
        out += pieces
    rng.shuffle(out)
    return tuple(out)


def without(boxes, cell) -> tuple:
    """Disjoint `boxes` with `cell` taken out of the box that holds it."""
    ts, te = cell
    out = []
    for a, b, c, d in boxes:
        if not (a <= ts <= b and c <= te <= d):
            out.append((a, b, c, d))
            continue
        pieces = [(a, ts - 1, c, d), (ts + 1, b, c, d), (ts, ts, c, te - 1), (ts, ts, te + 1, d)]
        out += [(p, q, r, t) for p, q, r, t in pieces if p <= q and r <= t]
    return tuple(out)


@given(boxes=_boxes, others=_boxes, rng=st.randoms(use_true_random=False))
@settings(max_examples=200, deadline=None)
def test_member_set_equality_and_hash_follow_the_intervals(boxes, others, rng):
    kept = disjoint(boxes)
    members = MemberSet(tuple(kept))
    listed = set(members)
    variants = [MemberSet(recut(kept, rng)), MemberSet(tuple(disjoint(others)))]
    grid = [(ts, te) for ts in range(-1, 8) for te in range(-1, 8)]
    ts, te = rng.choice([w for w in grid if w not in listed])
    added = recut(kept, rng) + ((ts, ts, te, te),)
    variants.append(MemberSet(added))  # one interval more
    if listed:
        inside = rng.choice(sorted(listed))
        variants.append(MemberSet(without(recut(kept, rng), inside)))  # one interval less
        variants.append(MemberSet(without(added, inside)))  # one interval moved
    for other in variants:
        same = listed == set(other)
        assert (members == other) == (other == members) == same
        assert (members != other) == (not same)
        if same:
            assert hash(members) == hash(other)
    assert variants[0] == members and len(variants[2]) == len(members) + 1


def test_member_sets_compare_by_their_intervals(g0):
    assert MemberSet(((1, 2, 3, 3),)) == MemberSet(((2, 2, 3, 3), (1, 1, 3, 3)))
    assert MemberSet(((1, 2, 3, 3),)) != MemberSet(((1, 1, 3, 4),))
    for measure, mode, sigma in (("size", "optimize", None), ("growth_rate", "constrain", 0)):
        spec = QuerySpec(k=2, window=(1, 5), measure=get_measure(measure), mode=mode, sigma=sigma)
        assert run_txcq(g0, spec).entries == run_txcq(g0, spec).entries != ()


def test_member_list_of_a_single_rectangle_zone(g0):
    zones = {z.tti: z for z in run_otcd_star(g0, 2, (1, 5))}
    assert list(zones[TimeInterval(1, 3)].members) == [
        TimeInterval(1, 3),
        TimeInterval(1, 4),
    ]


def test_zone_and_answer_records_keep_their_contract(g0):
    core, tti, ltis = reference_core(g0, 2, (1, 3)), TimeInterval(1, 3), (TimeInterval(1, 4),)
    by_name = ZoneRecord(core=core, tti=tti, ltis=ltis)  # as perfbench/reference.py builds it
    by_position = ZoneRecord(core, tti, ltis)
    for zone in (by_name, by_position):
        assert (zone.core, zone.tti, zone.ltis) == (core, tti, ltis)
    assert by_name == by_position and hash(by_name) == hash(by_position)
    assert repr(by_name) == f"ZoneRecord(core={core!r}, tti={tti!r}, ltis={ltis!r})"
    entry = ResultEntry(by_name, by_name.members, 3)
    same = ResultEntry(zone=by_position, qualifying=by_position.members, x_value=3)
    assert (entry.zone, entry.qualifying, entry.x_value) == (by_position, MemberSet(((1, 1, 3, 4),)), 3)
    assert entry == same and hash(entry) == hash(same)
    stats = QueryStats("core-index")
    result = QueryResult((entry,), stats)
    assert result == QueryResult(entries=(same,), stats=stats)
    assert (result.entries, result.stats) == ((same,), stats)
    assert [e.zone for e in result.entries] == [by_position]
    for record, name in ((by_name, "tti"), (entry, "x_value"), (result, "entries")):
        with pytest.raises(AttributeError):
            setattr(record, name, None)

    measures = [("size", "optimize", None), ("burstiness", "optimize", None),
                ("burstiness", "constrain", Fraction(3, 2)), ("engagement", "constrain", Fraction(2, 3))]
    specs = [QuerySpec(k=2, window=(1, 5))] + [
        QuerySpec(k=2, window=(1, 5), measure=get_measure(m), mode=mode, sigma=sigma)
        for m, mode, sigma in measures
    ]
    assert {spec.mode for spec in specs} == {"enumerate", "optimize", "constrain"}
    for spec in specs:
        want = canonical_result(brute_force_txcq(g0, spec), spec.mode)
        assert canonical_result(run_txcq(g0, spec), spec.mode) == want, spec
        assert canonical_result(run_txcq_walk(g0, spec), spec.mode) == want, spec


# -- query specs ----------------------------------------------------------


def test_spec_coerces_window_and_validates(g0):
    spec = QuerySpec(k=2, window=(1, 5))
    assert spec.window == TimeInterval(1, 5)
    # a k or a window end that `operator.index` refuses
    for k, window in [(2.5, (1, 5)), (2.0, (1, 5)), ("2", (1, 5)), (2, (3.5, 18.5)), (2, (1, 5.0))]:
        with pytest.raises(ValueError, match="must be integers"):
            QuerySpec(k, window)
        for run in (run_tcd, run_otcd, run_otcd_star):
            with pytest.raises(ValueError, match="must be integers"):
                run(g0, k, window)
    # a k below 1 is refused whether or not the window holds a stamp
    for k, window in [(0, (1, 5)), (-1, (1, 5)), (0, (8, 9)), (-1, (8, 9))]:
        with pytest.raises(ValueError, match="at least 1"):
            QuerySpec(k, window)
        for run in (run_tcd, run_otcd, run_otcd_star):
            with pytest.raises(ValueError, match="at least 1"):
                run(g0, k, window)
    with pytest.raises(ValueError):
        QuerySpec(k=2, window=(1, 5), mode="rank")
    with pytest.raises(ValueError):
        QuerySpec(k=2, window=(1, 5), mode="optimize")  # no measure
    with pytest.raises(ValueError):
        QuerySpec(k=2, window=(1, 5), measure=get_measure("size"), mode="constrain")


@pytest.mark.parametrize("sigma", [float("nan"), float("inf"), float("-inf")])
def test_spec_rejects_non_finite_thresholds(sigma):
    with pytest.raises(ValueError, match="finite"):
        QuerySpec(k=2, window=(1, 5), measure=get_measure("engagement"), mode="constrain", sigma=sigma)


def test_spec_keeps_finite_thresholds_of_any_size():
    for sigma in (0, Fraction(3, 4), 10**400, 2.5):
        spec = QuerySpec(k=2, window=(1, 5), measure=get_measure("size"), mode="constrain", sigma=sigma)
        assert spec.sigma == sigma


# -- phase 1 --------------------------------------------------------------


def test_zone_location_on_the_worked_example(g0):
    zones = run_otcd_star(g0, 2, (1, 5))
    assert [(tuple(z.tti), [tuple(l) for l in z.ltis]) for z in zones] == [
        ((1, 3), [(1, 4)]),
        ((1, 5), [(1, 5)]),
        ((2, 5), [(2, 5)]),
    ]
    assert all(sorted(g0.label_of(v) for v in z.core.vertices) == ["a", "b", "c"] for z in zones)


def test_enumerate_query_reports_rectangle_prune_stats(g0):
    res = run_txcq_walk(g0, QuerySpec(k=2, window=(1, 5)))  # OTCD*'s counters
    assert [e.zone.tti for e in res.entries] == [
        TimeInterval(1, 3),
        TimeInterval(1, 5),
        TimeInterval(2, 5),
    ]
    assert res.stats.algorithm == "otcd-star"
    assert res.stats.cells_visited == 6
    assert res.stats.prune_counters["decompositions"] == 6
    assert res.stats.prune_counters["trigger_counts"] == {
        "PoR": 0, "PoU": 0, "PoL": 0, "Rule4": 1, "Empty": 3,
    }


def test_empty_window_yields_no_zones(g0):
    assert run_otcd_star(g0, 2, (8, 9)) == []
    assert run_txcq(g0, QuerySpec(k=2, window=(8, 9))).entries == ()


def test_each_core_is_captured_once_per_zone(monkeypatch):
    # the walk captures from its TEL once per zone of every query; the
    # index captures a core on its first read and hands that snapshot to
    # every later query of the (graph, k)
    walk_captures, index_captures = [], []
    capture, read = TEL.snapshot, CoreIndex._first_read

    def counted(tel):
        walk_captures.append(tel.tti())
        return capture(tel)

    def counted_read(index, *args):
        entry = read(index, *args)
        index_captures.append(entry[0].tti)
        return entry

    monkeypatch.setattr(TEL, "snapshot", counted)
    monkeypatch.setattr(CoreIndex, "_first_read", counted_read)
    rng = random.Random(4242)
    for trial in range(20):
        g = random_instance(rng, 7000 + trial)
        k = rng.choice((2, 3))
        index_captures.clear()
        read_ttis, snapshots = set(), {}
        for _ in range(4):
            window = tuple(sorted((rng.randint(1, 14), rng.randint(1, 14))))
            for measure, mode in ((None, "enumerate"), ("burstiness", "optimize"), ("engagement", "constrain")):
                spec = QuerySpec(
                    k=k, window=window, measure=measure and get_measure(measure), mode=mode,
                    sigma=Fraction(1, 2) if mode == "constrain" else None,
                )
                walk_captures.clear()
                zones = run_otcd_star(g, k, window)
                assert sorted(walk_captures) == [z.tti for z in zones]
                walk_captures.clear()
                run_txcq_walk(g, spec)
                assert sorted(walk_captures) == [z.tti for z in zones]
                res = run_txcq(g, spec)
                assert res.stats.algorithm == "core-index"
                read_ttis.update(z.tti for z in zones)
                for e in res.entries:
                    assert snapshots.setdefault(e.zone.tti, e.zone.core) is e.zone.core
        assert sorted(index_captures) == sorted(read_ttis)  # once per (graph, k), however often read


# -- phase 2: one evaluation per zone for insensitive measures -------------


def test_insensitive_optimize_evaluates_once_per_zone(g0):
    res = run_txcq(g0, QuerySpec(k=2, window=(1, 5), measure=get_measure("size"), mode="optimize"))
    assert res.stats.x_evaluations == 3
    # all three zones are the same triangle, so all tie at the optimum
    assert canon(res, "optimize") == (
        frozenset({TimeInterval(1, 3), TimeInterval(1, 5), TimeInterval(2, 5)}),
        3,
    )
    # winners report their full membership
    by_tti = {e.zone.tti: e for e in res.entries}
    assert tuple(by_tti[TimeInterval(1, 3)].qualifying) == (TimeInterval(1, 3), TimeInterval(1, 4))


def test_insensitive_single_winner_cases(g0):
    for name, best in (("time_span", 2), ("persistence", 1)):
        res = run_txcq(g0, QuerySpec(k=2, window=(1, 5), measure=get_measure(name), mode="optimize"))
        assert canon(res, "optimize") == (frozenset({TimeInterval(1, 3)}), best)


def test_insensitive_constrain_keeps_qualifying_zones_whole(g0):
    res = run_txcq(
        g0, QuerySpec(k=2, window=(1, 5), measure=get_measure("size"), mode="constrain", sigma=3)
    )
    assert canon(res, "constrain") == MemberSet(((1, 1, 3, 3), (1, 1, 4, 4), (1, 1, 5, 5), (2, 2, 5, 5)))
    assert res.entries and all(e.x_value == 3 for e in res.entries)  # each zone's own value


# -- phase 2: monotonic optimization ---------------------------------------


def test_shrink_improving_optimum_sits_at_the_tight_corner(g0):
    res = run_txcq(
        g0, QuerySpec(k=2, window=(1, 5), measure=get_measure("burstiness"), mode="optimize")
    )
    assert res.stats.x_evaluations == 3  # one tight corner per zone
    assert canon(res, "optimize") == (frozenset({TimeInterval(1, 3)}), Fraction(2))
    (entry,) = res.entries
    assert tuple(entry.qualifying) == (TimeInterval(1, 3),)
    assert entry.x_value == Fraction(2)


def test_expand_improving_optimum_sits_at_a_loose_corner(g0):
    window_length = MeasureDescriptor(
        "window_length", "monotonic", "higher",
        lambda core, w, ctx: w.duration, improves_on="expand",
    )
    spec = QuerySpec(k=2, window=(1, 5), measure=window_length, mode="optimize")
    want = (frozenset({TimeInterval(1, 5)}), 5)
    assert canon(run_txcq(g0, spec), "optimize") == want
    assert canon(run_tcd_star(g0, spec), "optimize") == want
    assert canon(brute_force_txcq(g0, spec), "optimize") == want


def test_monotonic_optimize_agrees_for_every_builtin(g0):
    for name, want in (
        ("growth_rate", (frozenset({TimeInterval(1, 3)}), Fraction(1))),
        ("engagement", (frozenset({TimeInterval(1, 3)}), Fraction(1))),
    ):
        spec = QuerySpec(k=2, window=(1, 5), measure=get_measure(name), mode="optimize")
        assert canon(run_txcq(g0, spec), "optimize") == want


# -- phase 2: monotonic threshold walk --------------------------------------


def test_boundary_walk_counts_and_results(g0):
    spec = QuerySpec(
        k=2, window=(1, 5), measure=get_measure("burstiness"), mode="constrain", sigma=Fraction(3, 2)
    )
    res = run_txcq(g0, spec)
    assert canon(res, "constrain") == MemberSet(((1, 1, 3, 3), (1, 1, 4, 4), (2, 2, 5, 5)))
    assert res.stats.zone_eval_counts == {
        TimeInterval(1, 3): 2,
        TimeInterval(1, 5): 1,
        TimeInterval(2, 5): 1,
    }
    assert res.stats.x_evaluations == 4
    assert all(e.x_value is None for e in res.entries)
    zones = {z.tti: z for z in run_otcd_star(g0, 2, (1, 5))}
    for tti, evals in res.stats.zone_eval_counts.items():
        assert evals <= sum(w + h for w, h in rect_dims(zones[tti]))


def test_boundary_walk_in_the_expand_direction(g0):
    window_length = MeasureDescriptor(
        "window_length", "monotonic", "higher",
        lambda core, w, ctx: w.duration, improves_on="expand",
    )
    spec = QuerySpec(k=2, window=(1, 5), measure=window_length, mode="constrain", sigma=4)
    res = run_txcq(g0, spec)
    want = MemberSet(((1, 1, 4, 4), (1, 1, 5, 5), (2, 2, 5, 5)))
    assert canon(res, "constrain") == want
    assert canon(brute_force_txcq(g0, spec), "constrain") == want
    assert res.stats.x_evaluations == 4


def walk_one_box(g0, direction, sigma):
    """`tmc_ls` on a hand-built zone of one box, starts 5..10 by ends
    12..30, under a measure of the window's duration alone (shrinking
    improves it when `direction` is "shrink", expanding otherwise).  Returns
    the qualifying set, the evaluation count and the cells evaluated."""
    cells = []

    def duration(core, w, ctx):
        cells.append(w)
        return w.duration

    better = "lower" if direction == "shrink" else "higher"
    measure = MeasureDescriptor("duration", "monotonic", better, duration, improves_on=direction)
    zone = ZoneRecord(reference_core(g0, 2, (1, 3)), TimeInterval(10, 12), (TimeInterval(5, 30),))
    assert zone.members.boxes == ((5, 10, 12, 30),)
    spec = QuerySpec(2, (5, 30), measure, "constrain", sigma)
    boxes, _, evals = tmc_ls(zone, spec, EvalContext(graph=g0, zone=zone))
    qualifying = MemberSet(boxes)
    assert evals == len(cells)
    want = {(ts, te) for ts in range(5, 11) for te in range(12, 31)
            if (te - ts + 1 <= sigma if direction == "shrink" else te - ts + 1 >= sigma)}
    assert set(qualifying) == want
    return qualifying, evals, cells


@pytest.mark.parametrize("direction, sigma", [("shrink", 100), ("expand", 1)])
def test_boundary_walk_settles_a_box_at_one_start_with_one_probe(g0, direction, sigma):
    # every column qualifies at its worst start: the first column and the
    # probe of the last settle all 19 columns of the box
    qualifying, evals, cells = walk_one_box(g0, direction, sigma)
    assert qualifying.boxes == ((5, 10, 12, 30),)
    assert evals == 2
    far = 30 if direction == "shrink" else 12
    assert cells[1].te == far and cells[1].ts == cells[0].ts


@pytest.mark.parametrize(
    "direction, sigma, advance, evals",
    [
        ("shrink", 20, 6, 25),  # columns 25..30 each need a later start; 30 fails throughout
        ("shrink", 25, 1, 20),  # only the probed column needs one start more
        ("expand", 8, 5, 25),  # columns 16..12 each need an earlier start
        ("expand", 4, 1, 20),  # only the probed column needs one start more
    ],
)
def test_boundary_walk_after_a_failed_probe_costs_one_more_at_most(g0, direction, sigma, advance, evals):
    # the box's budget is its 19 columns and 6 starts, 25, and stepping on
    # from the failed probe may cost all that is left of it, so the walk
    # steps: a gallop could cost one evaluation more than stepping
    _, got, cells = walk_one_box(g0, direction, sigma)
    assert got == evals
    assert got <= 19 + advance + 1  # columns, starts stepped past, the probe
    assert len(set(cells)) == len(cells)  # the probed cell is not evaluated again


def lateness_walk(g0, direction, columns, first):
    """`tmc_ls` on a one-box zone 53 starts tall (8..60) and `columns`
    ends wide (60 on), under a measure that qualifies every column from
    one start on, the `first` start the walk meets that qualifies."""
    cells = []

    def lateness(core, w, ctx):
        cells.append(w)
        return w.ts if direction == "shrink" else -w.ts

    measure = MeasureDescriptor("lateness", "monotonic", "higher", lateness, improves_on=direction)
    zone = ZoneRecord(reference_core(g0, 2, (1, 3)), TimeInterval(60, 60), (TimeInterval(8, 59 + columns),))
    sigma = first if direction == "shrink" else -(68 - first)
    boxes, _, evals = tmc_ls(zone, QuerySpec(2, (8, 80), measure, "constrain", sigma),
                             EvalContext(graph=g0, zone=zone))
    qualifying = MemberSet(boxes)
    assert evals == len(cells) == len(set(cells))
    lo, hi = (first, 60) if direction == "shrink" else (8, 68 - first)
    assert qualifying.boxes == ((lo, hi, 60, 59 + columns),)
    return evals


@pytest.mark.parametrize("direction", ["shrink", "expand"])
def test_boundary_walk_gallops_up_a_tall_box(g0, direction):
    # galloping up the column and bisecting costs about twice log2 of the
    # height, wherever the first qualifying start lies
    assert max(lateness_walk(g0, direction, 1, first) for first in range(8, 61)) <= 14
    # with 20 columns, one probe of the far column settles the other 19;
    # a gallop that lands two starts up costs one evaluation more than
    # stepping there, which spends the one evaluation the budget (73) spares
    # a one-box zone, so the far probe is skipped and the columns are stepped
    evals = {first: lateness_walk(g0, direction, 20, first) for first in range(8, 61)}
    assert evals.pop(10) == 4 + 19 <= 20 + 53
    assert max(evals.values()) <= 14


@st.composite
def staircase_zones(draw):
    """A zone of TTI (13, 13) with one to four LTIs no more than 12 stamps
    out, and a qualifying region bounded by a nondecreasing threshold per
    end."""
    m = draw(st.integers(min_value=1, max_value=4))
    out = st.lists(st.integers(min_value=0, max_value=12), min_size=m, max_size=m, unique=True)
    ups, rights = sorted(draw(out), reverse=True), sorted(draw(out))
    ltis = tuple(reversed([TimeInterval(13 - up, 13 + right) for up, right in zip(ups, rights)]))
    rises = draw(st.lists(st.integers(min_value=0, max_value=4), min_size=13, max_size=13))
    offset = draw(st.integers(min_value=-2, max_value=16))
    return ltis, [offset + sum(rises[: i + 1]) for i in range(13)]


@pytest.mark.parametrize("direction", ["shrink", "expand"])
@given(case=staircase_zones())
# one box whose first column qualifies two starts up and each later one a
# start later: the gallop spends the box's one spare evaluation and the rest
# of the walk costs all the budget has left, so a probe of the far column
# at two starts up, which fails there, would take the walk one past it
@example(case=((TimeInterval(1, 25),), [3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 13, 13]))
@settings(max_examples=300, deadline=None)
def test_boundary_walk_stays_within_the_rectangle_budget(direction, case):
    # any monotone qualifying region: the walk answers it exactly, and its
    # evaluations stay within the sum of the rectangles' widths and heights
    ltis, threshold = case  # threshold[te - 13] is nondecreasing in te
    if direction == "shrink":  # a start qualifies from the threshold on
        def qualifies(ts, te):
            return ts >= threshold[te - 13]
    else:  # a start qualifies up to the threshold
        def qualifies(ts, te):
            return ts <= threshold[te - 13] - 12

    measure = MeasureDescriptor(
        "staircase", "monotonic", "higher", lambda core, w, ctx: int(qualifies(*w)), improves_on=direction
    )
    g = TemporalGraph.from_edges(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])
    zone = ZoneRecord(reference_core(g, 2, (1, 1)), TimeInterval(13, 13), ltis)
    spec = QuerySpec(2, (0, 30), measure, "constrain", 1)
    boxes, _, evals = tmc_ls(zone, spec, EvalContext(graph=g, zone=zone))
    qualifying = MemberSet(boxes)
    assert set(qualifying) == {w for w in zone.members if qualifies(*w)}
    assert evals <= sum(w + h for w, h in rect_dims(zone))


def test_gap_repro_costs_a_few_bisections():
    """Two triangles a million stamps apart: the zone at 10^6 is one column
    of about 10^6 starts, and the zone at 1 one row of as many ends.  The
    walk gallops along both instead of stepping."""
    far = 10**6
    g = TemporalGraph.from_edges(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1), (0, 1, far), (1, 2, far), (0, 2, far)])
    for sigma, members in ((Fraction(3, 1000), 2000), (4, 0)):
        spec = QuerySpec(2, (1, far), get_measure("growth_rate"), "constrain", sigma)
        res = run_txcq(g, spec)
        assert res.stats.x_evaluations <= 200
        assert sum(len(e.qualifying) for e in res.entries) == members
        assert canon(res, "constrain") == canon(run_txcq_walk(g, spec), "constrain")


# -- phase 2: placing values and building answers ----------------------------


class Tenths(Fraction):
    """A `Fraction` subclass: phase 2 places its values by `compare` and
    `satisfies`, not by their integer parts."""


exact_values = st.one_of(
    st.integers(min_value=-2, max_value=2),
    st.builds(Fraction, st.integers(min_value=-4, max_value=4), st.integers(min_value=1, max_value=2)),
    st.builds(Tenths, st.integers(min_value=-4, max_value=4), st.integers(min_value=1, max_value=2)),
    st.booleans(),
    st.builds(truediv, st.integers(min_value=-4, max_value=4), st.integers(min_value=1, max_value=2)),
    st.floats(min_value=-2, max_value=2),
)


@pytest.mark.parametrize("better", ["higher", "lower"])
@pytest.mark.parametrize("mode", ["optimize", "constrain"])
@given(g=small_graphs(), values=st.lists(exact_values, min_size=1, max_size=8), data=st.data())
@settings(max_examples=60, deadline=None)
def test_exact_values_are_placed_as_compare_places_them(better, mode, g, values, data):
    # drawn ints, Fractions, a Fraction subclass, bools and finite floats,
    # negative and often equal: phase 2 places two ints or Fractions by
    # their integer parts and the rest by `compare` and `satisfies`, and
    # answers as the oracle does, which places every value by those two;
    # the threshold is often one of the values
    sigma = data.draw(st.one_of(exact_values, st.sampled_from(values)))

    def key(core):
        return core.tti.ts * 7 + core.tti.te

    def constant(core, w, ctx):  # one value per core
        return values[key(core) % len(values)]

    best_first = sorted(values, reverse=better == "higher")

    def ladder(steps):  # a step worse (or better) per stamp the window grows past the core's TTI
        def value(core, w, ctx):
            return steps[min(w.duration - core.tti.duration + key(core) % 3, len(steps) - 1)]
        return value

    measures = [
        MeasureDescriptor("constant", "insensitive", better, constant),
        MeasureDescriptor("constant", "nonmonotonic", better, constant),
        MeasureDescriptor("ladder", "monotonic", better, ladder(best_first), improves_on="shrink"),
        MeasureDescriptor("ladder", "monotonic", better, ladder(best_first[::-1]), improves_on="expand"),
    ]
    for measure in measures:
        spec = QuerySpec(2, (1, 8), measure, mode, sigma if mode == "constrain" else None)
        want = canon(brute_force_txcq(g, spec), mode)
        assert canon(run_txcq(g, spec), mode) == want
        assert canon(run_txcq_walk(g, spec), mode) == want


def test_a_dropped_zone_builds_no_member_set(monkeypatch):
    # a zone's members are built only for an entry of the answer: an
    # optimize builds one set per winning zone, a constrain one per
    # qualifying zone, however many zones were searched
    built = []

    class Counting(MemberSet):
        def __init__(self, boxes):
            built.append(boxes)
            super().__init__(boxes)

    g = generate_synthetic(40, 300, 16, model="uniform", seed=3)
    specs = (  # (spec, entries): a monotonic and a nonmonotonic measure in each mode
        (QuerySpec(2, (1, 16), get_measure("burstiness"), "optimize"), 1),
        (QuerySpec(2, (1, 16), get_measure("growth_rate"), "constrain", 6), 64),
        (QuerySpec(2, (1, 16), UNIMODAL, "optimize"), 1),
        (QuerySpec(2, (1, 16), UNIMODAL, "constrain", 6), 85),
    )
    for spec, _ in specs:
        run_txcq(g, spec)  # warm: the index is built and every core read
    monkeypatch.setattr(txcq, "MemberSet", Counting)
    for spec, entries in specs:
        built.clear()
        res = run_txcq(g, spec)
        assert (len(res.stats.zone_eval_counts), len(res.entries)) == (123, entries)
        assert len(built) == entries
        assert all(type(e.qualifying) is Counting for e in res.entries)


def test_phase_two_runs_only_the_search_per_zone(monkeypatch):
    # phase 2 is one loop: per zone it runs the search and what the search
    # calls (`evaluate`, the evaluator and a constrain's threshold test),
    # and no other Python frame (no context constructor, no generator, no
    # comprehension); what it builds for the answer is one set of frames
    # per entry
    def spread(core, w, ctx):
        return core.edge_count + w.te - w.ts

    g = generate_synthetic(40, 300, 16, model="uniform", seed=3)
    insensitive = MeasureDescriptor("spread", "insensitive", "higher", spread)
    cases = (  # (measure, mode, threshold, the frames each zone runs)
        (insensitive, "optimize", None, {"ti_ls", "evaluate", "spread"}),
        (insensitive, "constrain", 10**6, {"ti_ls", "evaluate", "spread", "_reaches_exact"}),
        (MeasureDescriptor("spread", "monotonic", "higher", spread, improves_on="shrink"), "optimize", None,
         {"tmo_ls", "evaluate", "spread"}),
    )
    real = txcq._answer
    for measure, mode, sigma, searched in cases:
        spec = QuerySpec(2, (1, 16), measure, mode, sigma)
        run_txcq(g, spec)  # warm: the index is built and every core read
        frames = {}

        def profile(frame, event, arg):
            if event == "call":
                frames[frame.f_code] = frames.get(frame.f_code, 0) + 1

        def answer(*args):
            sys.setprofile(profile)
            try:
                return real(*args)
            finally:
                sys.setprofile(None)

        monkeypatch.setattr(txcq, "_answer", answer)
        # a collection inside the profiled call would close other tests'
        # suspended generators there, and count their frames
        gc.collect()
        res = run_txcq(g, spec)
        monkeypatch.setattr(txcq, "_answer", real)
        zones = len(res.stats.zone_eval_counts)
        assert zones == 123 and res.stats.x_evaluations == zones
        per_zone = {code.co_name: n for code, n in frames.items() if n >= zones}
        assert per_zone == dict.fromkeys(searched, zones)
        assert all(n <= len(res.entries) + 1 for code, n in frames.items() if n < zones)


def test_a_warm_index_query_runs_no_frame_per_zone_outside_its_searches():
    # a warm query runs `run_txcq`, `_run`, `CoreIndex.locate` and `_answer`:
    # phase 1 is no layer of its own, and `locate` calls no Python frame,
    # since it builds its cells and records by `tuple.__new__`; so per zone
    # the query runs only the search and what the search calls, and a
    # `burstiness` value is built without `Fraction.__new__`
    assert not hasattr(txcq, "_phase1")
    g = generate_synthetic(40, 300, 16, model="uniform", seed=3)
    locate = CoreIndex.locate.__code__
    built = {TimeInterval.__new__.__code__, ZoneRecord.__new__.__code__, Fraction.__new__.__code__}
    cases = (  # (measure, mode, the frames each zone runs)
        (None, "enumerate", set()),
        (get_measure("burstiness"), "optimize", {"tmo_ls", "evaluate", "_burstiness", "_ratio"}),
        (get_measure("growth_rate"), "optimize", {"tmo_ls", "evaluate", "_growth_rate", "_ratio"}),
    )
    for measure, mode, searched in cases:
        spec = QuerySpec(2, (1, 16), measure, mode)
        run_txcq(g, spec)  # warm: the index is built and every core read
        frames, in_locate = {}, []

        def profile(frame, event, arg):
            if event == "call":
                frames[frame.f_code] = frames.get(frame.f_code, 0) + 1
                if frame.f_back.f_code is locate:
                    in_locate.append(frame.f_code.co_name)

        gc.collect()  # as above: no other test's garbage is collected in the profiled call
        sys.setprofile(profile)
        try:
            res = run_txcq(g, spec)
        finally:
            sys.setprofile(None)
        zones = len(res.stats.zone_eval_counts) or len(res.entries)
        assert zones == 123 and res.stats.index == "reused"
        assert frames[locate] == 1 and in_locate == []
        assert built.isdisjoint(frames)
        assert {code.co_name for code, n in frames.items() if n >= zones} == searched


@pytest.mark.parametrize("run", [run_txcq, run_txcq_walk])
def test_phase_two_evaluates_through_the_module_global(monkeypatch, run):
    # the searches look `evaluate` up in `txcq` at call time, so a wrapper
    # there (a tracer's, say) sees every evaluation a query counts
    g = generate_synthetic(40, 300, 16, model="uniform", seed=3)
    real, calls = txcq.evaluate, []

    def counted(*args):
        calls.append(args[2])
        return real(*args)

    monkeypatch.setattr(txcq, "evaluate", counted)
    specs = (
        QuerySpec(2, (1, 16), get_measure("size"), "optimize"),
        QuerySpec(2, (1, 16), get_measure("periodicity"), "constrain", 2),
        QuerySpec(2, (1, 16), get_measure("burstiness"), "optimize"),
        QuerySpec(2, (1, 16), get_measure("engagement"), "constrain", Fraction(1, 2)),
        QuerySpec(2, (1, 16), EXPANDING, "optimize"),
        QuerySpec(2, (1, 16), EXPANDING, "constrain", 12),
        QuerySpec(2, (4, 9), UNIMODAL, "optimize"),
    )
    for spec in specs:
        calls.clear()
        res = run(g, spec)
        assert len(calls) == res.stats.x_evaluations > 0, spec.measure.name
        assert sum(res.stats.zone_eval_counts.values()) == len(calls)


EXPANDING = MeasureDescriptor(
    "span", "monotonic", "higher", lambda core, w, ctx: w.te - w.ts, improves_on="expand",
)


UNIMODAL = MeasureDescriptor(
    "unimodal", "nonmonotonic", "higher",
    lambda core, w, ctx: Fraction(core.vertex_count, 1 + abs(w.duration - 4)),
)


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None)
def test_the_exhaustive_search_evaluates_each_member_once_in_order(seed):
    # `all_ls` reads the members off the LTIs in the order a zone's
    # `MemberSet` iterates them, and counts them as its length
    rng = random.Random(seed)
    g = random_instance(rng, seed)
    seen = []
    spec = QuerySpec(2, (g.min_t, g.max_t), MeasureDescriptor(
        "seen", "nonmonotonic", "higher", lambda core, w, ctx: seen.append(w) or 1
    ), "optimize")
    for zone in run_otcd_star(g, 2, spec.window):
        seen.clear()
        boxes, value, evals = txcq.all_ls(zone, spec, EvalContext(graph=g, zone=zone))
        assert seen == list(zone.members) and evals == len(seen) == len(zone.members)
        assert boxes == tuple((ts, ts, te, te) for ts, te in seen) and value == 1


# -- dispatch and the exhaustive fallback ------------------------------------


def test_nonmonotonic_measures_fall_back_to_full_evaluation(g0):
    odd_window = MeasureDescriptor(
        "odd_window", "nonmonotonic", "higher", lambda core, w, ctx: w.duration % 2
    )
    spec = QuerySpec(k=2, window=(1, 5), measure=odd_window, mode="optimize")
    want = (frozenset({TimeInterval(1, 3), TimeInterval(1, 5)}), 1)
    # phase 1 is the query's usual route; every member is then evaluated
    for run, route in ((run_txcq, "core-index"), (run_txcq_walk, "otcd-star")):
        res = run(g0, spec)
        assert res.stats.algorithm == route
        assert res.stats.exhaustive
        assert canon(res, "optimize") == want
    assert canon(brute_force_txcq(g0, spec), "optimize") == want


def test_exhaustive_fallback_decomposes_every_cell(g0):
    spec = QuerySpec(k=2, window=(1, 5), measure=get_measure("size"), mode="optimize")
    res = run_tcd_star(g0, spec)
    assert res.stats.x_evaluations == 4  # one per nonempty subinterval
    assert res.stats.cells_visited == 15  # the whole triangle of window (1, 5)
    assert res.stats.prune_counters["decompositions"] == 15
    assert canon(res, "optimize") == canon(run_txcq(g0, spec), "optimize")


def test_exhaustive_fallback_requires_a_measure(g0):
    with pytest.raises(ContractViolation):
        run_tcd_star(g0, QuerySpec(k=2, window=(1, 5)))


def test_canonical_enumerate_compares_full_geometry(g0):
    eng = run_txcq(g0, QuerySpec(k=2, window=(1, 5)))
    ora = brute_force_txcq(g0, QuerySpec(k=2, window=(1, 5)))
    assert canon(eng, "enumerate") == canon(ora, "enumerate")
    with pytest.raises(ValueError):
        canonical_result(eng, "benchmark")


def test_keys_compare_member_sets_without_listing_them(monkeypatch):
    # two triangles a million stamps apart: each one's zone holds ~10^6 intervals
    far = 10**6
    g = TemporalGraph(4, [(0, 1, 1), (1, 2, 1), (0, 2, 1), (1, 2, far), (2, 3, far), (1, 3, far)])

    def refuse(self):
        raise AssertionError("a member set was listed")

    monkeypatch.setattr(MemberSet, "__iter__", refuse)
    spec = QuerySpec(2, (1, far), get_measure("size"), "constrain", 3)
    index, walk = run_txcq(g, spec), run_txcq_walk(g, spec)
    assert index.stats.algorithm == "core-index" and walk.stats.algorithm == "otcd-star"
    assert index.entries == walk.entries and hash(index.entries) == hash(walk.entries)
    key = canonical_result(index, "constrain")
    assert key == canonical_result(walk, "constrain") and len(key) == 2 * far - 2
    recut = MemberSet(((1, 1, 1, far - 2), (2, far - 1, far, far), (far, far, far, far), (1, 1, far - 1, far - 1)))
    assert key == recut == key and hash(key) == hash(recut)
    assert key != MemberSet(recut.boxes[:-1] + ((1, 1, far, far),))  # one interval moved
    spec = QuerySpec(2, (1, far))
    assert canonical_result(run_txcq(g, spec), "enumerate") == canonical_result(run_txcq_walk(g, spec), "enumerate")


def test_enumerate_key_leaves_the_index_snapshots_unexpanded():
    g = generate_synthetic(60, 900, 12, model="planted-community", seed=5)
    spec = QuerySpec(2, g.time_range())
    sizes = {e.zone.tti: len(e.zone.core.vertices) for e in brute_force_txcq(g, spec).entries}
    # `size` and `growth_rate` read the vertex count, and no route builds a vertex set for them
    for measure, mode, sigma in (("size", "optimize", None), ("growth_rate", "constrain", 1)):
        measured = QuerySpec(2, spec.window, get_measure(measure), mode, sigma)
        index, walk = run_txcq(g, measured), run_txcq_walk(g, measured)
        assert index.entries and canon(index, mode) == canon(walk, mode)
        for e in index.entries + walk.entries:
            assert "vertices" not in vars(e.zone.core) and e.zone.core.vertex_count == sizes[e.zone.tti]
    # an index capture and a walk capture of one core are equal and hash
    # alike before either builds its set, once one has, and once both have
    walked = {e.zone.tti: e.zone.core for e in walk.entries}
    for e in index.entries:
        a, b = e.zone.core, walked[e.zone.tti]
        assert hash(a) == hash(b)
        assert a.vertices and "vertices" not in vars(b) and hash(a) == hash(b)
        assert a == b == a and "vertices" in vars(b) and hash(a) == hash(b)
    res = run_txcq(g, spec)
    assert res.stats.algorithm == "core-index"
    assert canon(res, "enumerate") == canon(run_txcq_walk(g, spec), "enumerate")
    snapshots = [snap for snap, _ in g.core_indexes[2].read.values()]
    assert len(snapshots) == len(res.entries) > 1
    assert all("edges" not in vars(snap) for snap in snapshots)


# -- randomized equivalence -------------------------------------------------


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None)
def test_zone_records_match_the_oracle_classes(seed):
    rng = random.Random(seed)
    g = random_instance(rng, seed)
    k = rng.choice((2, 3))
    zones = run_otcd_star(g, k, (1, 14))
    eng = run_txcq(g, QuerySpec(k=k, window=(1, 14)))
    ora = brute_force_txcq(g, QuerySpec(k=k, window=(1, 14)))
    assert canon(eng, "enumerate") == canon(ora, "enumerate")
    # membership agrees with the rectangle union cell by cell
    for e in ora.entries:
        for member in e.zone.members:
            assert any(member in z.members for z in zones)


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=25, deadline=None)
def test_measured_modes_match_the_oracle(seed):
    rng = random.Random(seed)
    g = random_instance(rng, seed, max_vertices=9, max_edges=40, max_timestamps=9)
    k = rng.choice((2, 3))
    for name, mode, sigma in (
        ("size", "optimize", None),
        ("burstiness", "optimize", None),
        ("engagement", "constrain", Fraction(1, 2)),
        ("frequency", "constrain", 1),
    ):
        spec = QuerySpec(k=k, window=(1, 9), measure=get_measure(name), mode=mode, sigma=sigma)
        want = canon(brute_force_txcq(g, spec), mode)
        assert canon(run_txcq(g, spec), mode) == want
        assert canon(run_tcd_star(g, spec), mode) == want


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None)
def test_exhaustive_fallback_reports_the_zones_of_otcd_star(seed):
    rng = random.Random(seed)
    g = random_instance(rng, seed)
    k = rng.choice((2, 3))
    # an unreachable threshold on `size` makes every member qualify
    spec = QuerySpec(k, (1, 14), get_measure("size"), "constrain", g.vertex_count + 1)
    entries = run_tcd_star(g, spec).entries

    def geometry(z):
        return (z.tti, z.ltis, z.core.vertices, z.core.edge_count)

    assert [geometry(e.zone) for e in entries] == [geometry(z) for z in run_otcd_star(g, k, (1, 14))]
    for e in entries:
        assert list(e.qualifying) == list(e.zone.members)


# -- gapped timestamps: every walk runs over ranks, answers stay raw -------


# a measure with no declared structure: it rises and falls as the window grows
WOBBLE = MeasureDescriptor(
    "wobble", "nonmonotonic", "higher", lambda core, w, ctx: (w.duration + core.edge_count) % 3
)
SPREAD = MeasureDescriptor(  # improves on expanding: the threshold walk runs in negated time
    "spread", "monotonic", "higher", lambda core, w, ctx: len(core.vertices) * w.duration,
    improves_on="expand",
)


def gapped_instance(rng, seed):
    """A random instance whose distinct stamps are spread by random gaps of
    1 to at most 50 raw units, with at least one gap of 2 or more."""
    g = random_instance(rng, seed, max_edges=80, max_timestamps=24)
    stamps = g.timestamps
    max_gap = rng.choice((2, 3, 6, 50))
    gaps = [rng.randint(1, max_gap) for _ in stamps[1:]]
    if gaps and max(gaps) < 2:
        gaps[rng.randrange(len(gaps))] = 2
    raw = {stamps[0]: rng.randint(-20, 100)}
    for prev, t, gap in zip(stamps, stamps[1:], gaps):
        raw[t] = raw[prev] + gap
    return TemporalGraph.from_edges(g.vertex_count, [(e.u, e.v, raw[e.t]) for e in g.edges])


def gapped_window(rng, stamps, kind):
    """A window of raw span at most 40 of the given kind."""
    first, last = stamps[0], stamps[-1]
    gaps = [(a + 1, b - 1) for a, b in zip(stamps, stamps[1:]) if b - a >= 2]
    if kind == "before-first":
        ts = rng.randint(first - 10, first - 1)
        return ts, rng.randint(ts, ts + 40)
    if kind == "after-last":
        te = rng.randint(last + 1, last + 10)
        return rng.randint(te - 40, te), te
    if kind == "inside-one-gap":
        lo, hi = rng.choice(gaps)
        ts = rng.randint(lo, hi)
        return ts, rng.randint(ts, hi)
    lo, hi = rng.choice(gaps[: (len(gaps) + 1) // 2])  # start early, so the window holds stamps
    ts = rng.randint(lo, hi)
    # both ends inside gaps, the end drawn from the farther half of reach
    held = set(stamps)
    ends = [t for t in range(ts, min(ts + 40, last) + 1) if t not in held]
    return ts, rng.choice(ends[len(ends) // 2 :])


@pytest.mark.parametrize("kind", ["ends-in-gaps", "before-first", "after-last", "inside-one-gap"])
@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=20, deadline=None)
def test_gapped_stamps_match_the_oracle(kind, seed):
    rng = random.Random(seed)
    g = gapped_instance(rng, seed)
    stamps = g.timestamps
    assume(len(stamps) >= 2)
    window = gapped_window(rng, stamps, kind)
    if kind == "inside-one-gap":
        assert not any(window[0] <= t <= window[1] for t in stamps)
    k = rng.choice((2, 3))

    pruned, exhaustive = run_otcd(g, k, window), run_tcd(g, k, window)
    assert pruned.cores == exhaustive.cores
    s = pruned.stats
    assert s.cells_visited + s.cells_pruned == s.cells_total
    held = sum(window[0] <= t <= window[1] for t in stamps)  # the rank triangle's side
    assert exhaustive.stats.cells_visited == exhaustive.stats.cells_total == held * (held + 1) // 2

    def geometry(z):
        return (z.tti, z.ltis, z.core.vertices, z.core.edge_count)

    oracle = brute_force_tcq(g, k, window)
    assert [geometry(z) for z in run_otcd_star(g, k, window)] == [geometry(c) for c in oracle.classes]

    def members(res):
        return {e.zone.tti: list(e.qualifying) for e in res.entries}

    insensitive = ("size", "frequency", "time_span", "persistence", "periodicity")
    queries = [
        (None, "enumerate", None),
        ("burstiness", "optimize", None),
        ("growth_rate", "optimize", None),
        ("burstiness", "constrain", rng.choice((Fraction(1, 2), 1, 2, 4))),
        ("growth_rate", "constrain", rng.choice((Fraction(1, 8), Fraction(1, 3), 1))),
        ("engagement", "constrain", rng.choice((Fraction(1, 3), Fraction(1, 2), 1))),
        ("spread", "optimize", None),
        ("spread", "constrain", rng.choice((8, 24, 60, 150))),
    ]
    queries += [(name, "optimize", None) for name in insensitive]
    queries += [(name, "constrain", rng.choice((1, 2, 3))) for name in insensitive]
    for name, mode, sigma in queries:
        measure = SPREAD if name == "spread" else name and get_measure(name)
        spec = QuerySpec(k, window, measure, mode, sigma)
        res, want = run_txcq(g, spec), brute_force_txcq(g, spec)
        assert canon(res, mode) == canon(want, mode), (name, mode)
        if mode == "constrain" or name in insensitive:
            # every qualifying member, expanded from its boxes, in order
            assert members(res) == members(want), (name, mode)
        if mode == "constrain" and name not in insensitive:
            # the threshold walk stays within the zone's rectangle extents
            for zone in (e.zone for e in res.entries):
                assert res.stats.zone_eval_counts[zone.tti] <= sum(w + h for w, h in rect_dims(zone))
        c = res.stats.prune_counters
        if c:
            assert c["cells_visited"] + c["cells_pruned"] == c["cells_total"]

    # the exhaustive engine evaluates every raw subinterval, gaps included
    for measure, mode, sigma in (
        (get_measure("burstiness"), "optimize", None),
        (get_measure("burstiness"), "constrain", rng.choice((Fraction(1, 2), 1, 2, 4))),
        (WOBBLE, "optimize", None),
        (WOBBLE, "constrain", rng.choice((1, 2))),
    ):
        spec = QuerySpec(k, window, measure, mode, sigma)
        want = canon(brute_force_txcq(g, spec), mode)
        exhaustive = run_tcd_star(g, spec)
        assert canon(exhaustive, mode) == want, (measure.name, mode)
        if measure is WOBBLE:  # answered by all_ls on either phase-1 route
            for run in (run_txcq, run_txcq_walk):
                res = run(g, spec)
                assert res.stats.exhaustive
                assert canon(res, mode) == want, (measure.name, mode, run.__name__)
                assert res.stats.zone_eval_counts == exhaustive.stats.zone_eval_counts


def test_unix_scale_gap_costs_what_its_ranks_cost():
    """Two triangles a billion seconds apart: the pruned walk sees two
    distinct stamps, so three cells, and answers as on the ranked graph."""
    big = 10**9
    g = TemporalGraph.from_edges(
        3, [(0, 1, 1), (1, 2, 1), (0, 2, 1), (0, 1, big), (1, 2, big), (0, 2, big)]
    )
    ranked = normalize_timestamps(g, "rank")
    raw = g.timestamps  # rank r is raw[r - 1]

    def tight(iv):
        return TimeInterval(raw[iv.ts - 1], raw[iv.te - 1])

    def loose(iv):  # a rank LTI reaches the edge of the next gap or the window
        return TimeInterval(
            1 if iv.ts == 1 else raw[iv.ts - 2] + 1, big if iv.te == len(raw) else raw[iv.te] - 1
        )

    def answer(res, tight=None, loose=None):
        tight, loose = tight or (lambda iv: iv), loose or (lambda iv: iv)
        return [
            (
                tight(e.zone.tti),
                tuple(map(loose, e.zone.ltis)),
                e.zone.core.vertices,
                e.zone.core.edge_count,
                e.qualifying and tuple(map(tight, e.qualifying)),
                e.x_value,
            )
            for e in res.entries
        ]

    for measure, mode in ((None, "enumerate"), (get_measure("burstiness"), "optimize")):
        res = run_txcq(g, QuerySpec(2, (1, big), measure, mode))
        want = run_txcq(ranked, QuerySpec(2, (1, 2), measure, mode))
        assert answer(res) == answer(want, tight, loose)
        assert res.stats.prune_counters["cells_total"] == 3
        assert res.stats.cells_visited + res.stats.prune_counters["cells_pruned"] == 3
    assert [(e.zone.tti, e.zone.ltis) for e in run_txcq(g, QuerySpec(2, (1, big))).entries] == [
        (TimeInterval(1, 1), (TimeInterval(1, big - 1),)),
        (TimeInterval(1, big), (TimeInterval(1, big),)),
        (TimeInterval(big, big), (TimeInterval(2, big),)),
    ]
    assert run_otcd(g, 2, (1, big)).stats.cells_total == 3
    assert run_tcd(g, 2, (1, big)).stats.cells_total == 3
    # members are boxes, so a gap's O(big**2) of them cost nothing to report:
    # every member ties on `size`, big - 1 + 1 + big - 1 of them
    res = run_txcq(g, QuerySpec(2, (1, big), get_measure("size"), "optimize"))
    assert sum(len(e.qualifying) for e in res.entries) == 2 * big - 1
    assert all(len(e.qualifying.boxes) <= len(e.zone.ltis) for e in res.entries)
    # one zone, a column of big - 1 starts whose worst qualifies: one evaluation
    spec = QuerySpec(2, (2, big), get_measure("growth_rate"), "constrain", Fraction(3, big - 1))
    res = run_txcq(g, spec)
    (entry,) = res.entries
    assert len(entry.qualifying) == big - 1
    assert len(entry.qualifying.boxes) <= len(entry.zone.ltis)
    assert res.stats.x_evaluations == 1
    # a column that fails throughout settles the other big - 2 of its box
    spec = QuerySpec(2, (1, big - 1), get_measure("growth_rate"), "constrain", 4)
    res = run_txcq(g, spec)
    assert not res.entries and res.stats.x_evaluations == 1
    # adjacent settled columns with equal starts share one box: on triangles
    # 1,000 seconds apart, the zone at t=1 is one row and the zone at t=1001
    # one column
    small = TemporalGraph.from_edges(
        3, [(0, 1, 1), (1, 2, 1), (0, 2, 1), (0, 1, 1001), (1, 2, 1001), (0, 2, 1001)]
    )
    spec = QuerySpec(2, (1, 1001), get_measure("growth_rate"), "constrain", Fraction(3, 1000))
    res = run_txcq(small, spec)
    assert [(len(e.qualifying), len(e.qualifying.boxes)) for e in res.entries] == [(1000, 1), (1000, 1)]
    assert res.stats.x_evaluations == 4  # the row settles with one probe of its far column
    # a measure evaluated on every raw subinterval is refused before the walk
    with pytest.raises(ContractViolation):
        run_tcd_star(g, QuerySpec(2, (1, big), get_measure("burstiness"), "optimize"))
    with pytest.raises(ContractViolation):
        run_txcq(g, QuerySpec(2, (1, big), WOBBLE, "constrain", 1))
