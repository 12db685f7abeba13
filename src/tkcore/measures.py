"""Interval-sensitive measures evaluated on (core, window) pairs.

A measure declares how its value reacts to changing the query window while
the core stays fixed: `insensitive` values never change, `monotonic` values
only improve toward one end (shrinking or expanding the window), and
`nonmonotonic` values carry no guarantee.  The search strategies pick their
evaluation schedule from that declaration, so a mislabeled measure produces
wrong answers; `check_measure_sensitivity` spot-checks a declaration on
real zones.

The built-in measures' values are exact: plain ints or `fractions.Fraction`,
which `growth_rate` and `burstiness` build by `_ratio`, without a
`Fraction.__new__` frame.
This module alone orders values, for every route and the oracle alike.
Evaluators read what a captured core keeps: `burstiness` its distinct-pair
count, `frequency` its least parallel-edge count, and `engagement` its
vertices by degree bound, ordered in exact integers, and its value at its
TTI, both kept only against the core's own graph, so a core-time index
answers every later evaluation at a TTI from the core itself.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import partial
from itertools import repeat
from math import gcd
from operator import attrgetter, floordiv, ge, gt, itemgetter, le, lt, mul
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple

from .graph import ContractViolation, CoreSnapshot, TemporalGraph, TimeInterval

SENSITIVITIES = ("insensitive", "monotonic", "nonmonotonic")
DIRECTIONS = ("shrink", "expand")


class UndefinedMeasureValue(ValueError):
    """The measure has no value here (for instance, on an empty core)."""


class MeasureValueError(TypeError):
    """Measure values could not be compared."""


class EvalContext(NamedTuple):
    """Read-only handles an evaluator may need beyond the core itself.  A
    query makes one per zone, so it is a plain tuple.

    `memo` is one dict per query, shared by the contexts of all its zones
    (`with_zone` carries it), in which a built-in evaluator keeps what it
    works out once per query from `all_zones` and `params`: `periodicity`
    keeps the zones grouped by vertex set, with the zones and gap it grouped
    them for, so a context that replaces either rebuilds the groups.  A
    context without one (None, the default) is answered by each evaluation
    alone."""

    graph: TemporalGraph | None = None
    zone: object | None = None
    all_zones: tuple | None = None
    params: Mapping = MappingProxyType({})
    memo: dict | None = None

    def with_zone(self, zone) -> "EvalContext":
        return EvalContext(self.graph, zone, self.all_zones, self.params, self.memo)


# the order of each orientation: (beats, reaches), strictly better and no worse
_ORDERS = {"higher": (gt, ge), "lower": (lt, le)}

# The integer parts (numerator, denominator > 0) of a value whose type is
# exactly one of these, read without a Python call: `Fraction.numerator` is
# a property, so its slots are read instead.  Two such values order as the
# cross products of their parts, n1 * d2 against n2 * d1, which costs no
# `Fraction` comparison.  `bool` and subclasses are left out, since a
# subclass may order its values otherwise.
EXACT_PARTS = {
    int: attrgetter("numerator", "denominator"),
    Fraction: attrgetter("_numerator", "_denominator"),
}


@dataclass(frozen=True)
class MeasureDescriptor:
    """A measure's declaration.  `beats` and `reaches` are the operators of
    its orientation, `>` and `>=` when higher is better, `<` and `<=` when
    lower is; every comparison of its values goes through them, in this
    module alone, and values they leave unordered are refused."""

    name: str
    sensitivity: str
    better: str  # "higher" | "lower"
    evaluator: Callable[[CoreSnapshot, TimeInterval, EvalContext], object]
    improves_on: str | None = None  # shrink | expand, monotonic only
    params: Mapping = field(default_factory=dict)
    beats: Callable = field(init=False, repr=False, compare=False)
    reaches: Callable = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.sensitivity not in SENSITIVITIES:
            raise ValueError(f"unknown sensitivity: {self.sensitivity!r}")
        if self.better not in _ORDERS:
            raise ValueError(f"better must be 'higher' or 'lower', got {self.better!r}")
        object.__setattr__(self, "beats", _ORDERS[self.better][0])
        object.__setattr__(self, "reaches", _ORDERS[self.better][1])
        if self.sensitivity == "monotonic":
            if self.improves_on not in DIRECTIONS:
                raise ValueError("monotonic measures must declare improves_on shrink|expand")
        elif self.improves_on is not None:
            raise ValueError("improves_on only applies to monotonic measures")

    def with_params(self, **params) -> "MeasureDescriptor":
        """A copy with `params` over the declared defaults; a name the
        measure does not declare raises ValueError."""
        for name in params:
            if name not in self.params:
                raise ValueError(f"measure {self.name} takes no parameter {name!r}")
        merged = dict(self.params)
        merged.update(params)
        return replace(self, params=merged)


def evaluate(measure: MeasureDescriptor, core: CoreSnapshot, window, ctx: EvalContext):
    """The measure's value on `core` over `window`.  A float NaN has no
    order, so no search could place it; it is refused here, where it is
    produced, whether or not anything compares it.  So a value that leaves
    here needs one comparison by `beats` or `reaches` to be placed."""
    if not core.edge_count:
        raise UndefinedMeasureValue(f"{measure.name} is undefined on an empty core")
    if not isinstance(window, TimeInterval):
        window = TimeInterval(*window)
    value = measure.evaluator(core, window, ctx)
    if isinstance(value, float) and value != value:
        raise MeasureValueError(f"{measure.name} has a NaN value on {tuple(window)}")
    return value


def compare(measure: MeasureDescriptor, a, b) -> str:
    """Orient `a` against `b` by the measure's `beats`: 'better', 'equal',
    or 'worse'.  Values that neither match nor order, such as a float NaN
    or values of unrelated kinds, are refused rather than called better or
    worse."""
    try:
        if a == b:
            return "equal"
        if measure.beats(a, b):
            return "better"
        if measure.beats(b, a):
            return "worse"
    except TypeError as exc:
        raise MeasureValueError(f"cannot compare {a!r} with {b!r}") from exc
    raise MeasureValueError(f"cannot order {a!r} against {b!r}")


def satisfies(measure: MeasureDescriptor, value, sigma) -> bool:
    """True when `value` is no worse than the threshold `sigma` by `compare`,
    which refuses a NaN or an unrelated kind."""
    return compare(measure, value, sigma) != "worse"


def threshold_test(measure: MeasureDescriptor, sigma) -> Callable[[object], bool]:
    """`satisfies` against `sigma`, made once per query: one `reaches` over
    the cross products of the integer parts when both values are exact
    (`EXACT_PARTS`), `satisfies` for any other value.  A threshold that is
    not finite is refused with ValueError."""
    try:
        finite = math.isfinite(sigma)
    except (OverflowError, TypeError):  # beyond float range, or not a real number
        finite = True
    if not finite:
        raise ValueError(f"threshold must be finite, got {sigma!r}")
    parts = EXACT_PARTS.get(type(sigma))
    if parts is None:
        return partial(satisfies, measure, sigma=sigma)
    return partial(_reaches_exact, measure, sigma, *parts(sigma))


def _reaches_exact(measure, sigma, at_n, at_d, value) -> bool:
    parts = EXACT_PARTS.get(type(value))
    if parts is None:
        return satisfies(measure, value, sigma)
    n, d = parts(value)
    return measure.reaches(n * at_d, at_n * d)


def keep_best(measure: MeasureDescriptor, placed) -> tuple[object, list]:
    """The best value of `placed`, (value, item) pairs, and the items that
    reach it, in order.  Each value is placed against the best so far: by
    the measure's `reaches` and `beats` over the cross products of the
    integer parts when both are exactly `int` or `Fraction` (`EXACT_PARTS`),
    so a worse value costs one comparison, and by `compare` otherwise,
    which ties equal values and refuses values that do not order."""
    beats, reaches, exact = measure.beats, measure.reaches, EXACT_PARTS.get
    best = at = None  # the best value so far, and its integer parts when it is exact
    kept = []
    for value, item in placed:
        parts = exact(type(value))
        here = None if parts is None else parts(value)
        if best is None:
            better = True
        elif here is not None and at is not None:
            mine, theirs = here[0] * at[1], at[0] * here[1]
            if not reaches(mine, theirs):
                continue  # worse
            better = beats(mine, theirs)
        else:
            place = compare(measure, value, best)
            if place == "worse":
                continue
            better = place == "better"
        if better:
            best, at = value, here
            kept.clear()
        kept.append(item)
    return best, kept


# -- built-in evaluators ------------------------------------------------


def _require_zone(ctx, name):
    if ctx.zone is None:
        raise ContractViolation(f"{name} needs the zone record in the context")
    return ctx.zone


def _size(core, w, ctx):
    return core.vertex_count


def _frequency(core, w, ctx):
    return core.least_pair_count


def _time_span(core, w, ctx):
    return core.tti.te - core.tti.ts


def _persistence(core, w, ctx):
    zone = _require_zone(ctx, "persistence")
    base = zone.tti.span
    return max(lti.span - base for lti in zone.ltis)


def _periodicity(core, w, ctx):
    zones = ctx.all_zones
    if zones is None:
        raise ContractViolation("periodicity needs the full zone list in the context")
    gap = ctx.params.get("p", 1)
    memo = ctx.memo
    if memo is None:  # each evaluation scans every zone
        return _chain_count([z.tti for z in zones if z.core.vertices == core.vertices], gap)
    # the groups are kept with the zones and gap they were built from, so a
    # context that shares the memo but replaces either rebuilds them
    kept = memo.get("periodicity")
    if kept is None or kept[0] is not zones or kept[1] != gap:
        kept = memo["periodicity"] = (zones, gap, _periodicity_groups(zones, gap))
    return kept[2].get(core.vertices, 0)


_END = attrgetter("te")


def _chain_count(ttis, gap) -> int:
    """The longest chain of `ttis`, taken greedily by ascending end, in
    which each starts at least `gap` past the end of the one before."""
    count, last_end = 0, None
    for tti in sorted(ttis, key=_END):
        if last_end is None or tti.ts - last_end >= gap:
            count += 1
            last_end = tti.te
    return count


def _periodicity_groups(zones, gap) -> dict:
    """`periodicity` of every zone's core, worked out once per query: the
    zones grouped by vertex set, each set mapped to its group's
    `_chain_count`.  Hashing groups them, so the comparisons grow with the
    zones, not with their pairs."""
    by_set: dict = {}
    for z in zones:
        by_set.setdefault(z.core.vertices, []).append(z.tti)
    for vertices, ttis in by_set.items():  # a loop, not a comprehension frame
        by_set[vertices] = _chain_count(ttis, gap)
    return by_set


_new = object.__new__


def _ratio(n: int, d: int) -> Fraction:
    """`Fraction(n, d)` of two ints with d >= 1 (a window's duration), built
    without `Fraction.__new__`: the parts are cut by their `math.gcd` and
    set in the slots that `EXACT_PARTS` reads."""
    g = gcd(n, d)
    value = _new(Fraction)
    value._numerator = n // g
    value._denominator = d // g
    return value


def _growth_rate(core, w, ctx):
    # w.te - w.ts + 1 is `w.duration` without a property call
    return _ratio(core.vertex_count, w.te - w.ts + 1)


def _burstiness(core, w, ctx):
    # the degree sum counts every adjacent vertex pair twice
    return _ratio(2 * core.pair_count, w.te - w.ts + 1)


def _bound_keys(inners, counts):
    """The integer sort keys of the ratios inner / count; `_engagement` says why they are exact."""
    return map(floordiv, map(mul, inners, repeat(max(counts) ** 2)), counts)


def _engagement(core, w, ctx):
    g = ctx.graph
    if g is None:
        raise ContractViolation("engagement needs the source graph in the context")
    # Both values a core keeps depend on the graph, so only a capture
    # evaluated against its own graph keeps them; the value at its TTI
    # depends on nothing else (a shrink-improving optimize reads only it).
    own = g is core._graph
    at_tti = own and w == core.tti
    if at_tti and core.engagement_at_tti is not None:
        return core.engagement_at_tti
    # A vertex's window degree is at most its distinct neighbors over the
    # whole graph, so its ratio is at least inner / that count, its bound.
    # The order is by bound, keyed by inner * q * q // count for q the
    # largest count: ratios with denominators at most q differ by at least
    # 1 / q**2, so the keys order and tie them exactly.  While the window
    # holds the TTI the scan stops at the first bound that reaches the
    # least ratio found: neither that vertex nor a later one can undercut
    # it.  Elsewhere every vertex is read, and one with no neighbor raises.
    order = core.engagement_order if own else None
    if order is None:  # built in C, as a walk's cores are new to every query
        degrees = core.degrees
        timelines = map(g._timelines.get, degrees, repeat(((), (), ())))
        counts = tuple(map(len, map(itemgetter(2), timelines)))
        keys = _bound_keys(degrees.values(), counts)  # a vertex with no timeline raises, as its scan would
        rows = sorted(zip(keys, degrees, degrees.values(), counts), key=itemgetter(0))
        order = tuple(zip(*rows))[1:]  # vertices, core degrees and counts, kept as three tuples
        if own:
            core.engagement_order = order
    degree_in = g.degree_in
    holds = w.ts <= core.tti.ts and core.tti.te <= w.te
    n, d = 1, 0  # the least ratio so far as an int pair; 1 / 0 is above every ratio
    for v, inner, count in zip(*order):
        if holds and inner * d >= n * count:
            break
        outer = degree_in(v, w)
        if not outer:
            raise ZeroDivisionError(f"engagement: vertex {v} has no neighbor in {tuple(w)}")
        if inner * d < n * outer:
            n, d = inner, outer
    value = Fraction(n, d)
    if at_tti:
        core.engagement_at_tti = value
    return value


BUILTIN_MEASURES = (
    MeasureDescriptor("size", "insensitive", "lower", _size),
    MeasureDescriptor("frequency", "insensitive", "higher", _frequency),
    MeasureDescriptor("time_span", "insensitive", "lower", _time_span),
    MeasureDescriptor("persistence", "insensitive", "higher", _persistence),
    MeasureDescriptor("periodicity", "insensitive", "higher", _periodicity, params={"p": 1}),
    MeasureDescriptor("growth_rate", "monotonic", "higher", _growth_rate, improves_on="shrink"),
    MeasureDescriptor("burstiness", "monotonic", "higher", _burstiness, improves_on="shrink"),
    MeasureDescriptor("engagement", "monotonic", "higher", _engagement, improves_on="shrink"),
)

_REGISTRY: dict[str, MeasureDescriptor] = {m.name: m for m in BUILTIN_MEASURES}


def get_measure(name: str) -> MeasureDescriptor:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown measure: {name!r}") from None


def list_measures() -> list[str]:
    return sorted(_REGISTRY)


def register_udf(measure: MeasureDescriptor) -> None:
    """Register a user-defined measure; names are single-assignment."""
    if measure.name in _REGISTRY:
        raise ValueError(f"measure {measure.name!r} is already registered")
    _REGISTRY[measure.name] = measure


def check_measure_sensitivity(
    measure: MeasureDescriptor,
    graph: TemporalGraph,
    zones,
    *,
    rng: random.Random,
    samples: int = 200,
) -> list[str]:
    """Sample nested same-zone window pairs (an outer member drawn from a
    member box, an inner one between it and the zone's TTI) and report any
    observation that contradicts the measure's declared sensitivity."""
    violations = []
    candidates = [z for z in zones if len(z.members) >= 2]
    if not candidates:
        return violations
    base = EvalContext(graph=graph, all_zones=tuple(zones), params=dict(measure.params))
    for _ in range(samples):
        zone = rng.choice(candidates)
        ts_lo, ts_hi, te_lo, te_hi = rng.choice(zone.members.boxes)
        outer = TimeInterval(rng.randint(ts_lo, ts_hi), rng.randint(te_lo, te_hi))
        if outer == zone.tti:
            continue
        inner = outer
        while inner == outer:
            inner = TimeInterval(rng.randint(outer.ts, zone.tti.ts), rng.randint(zone.tti.te, outer.te))
        ctx = base.with_zone(zone)
        inner_val = evaluate(measure, zone.core, inner, ctx)
        outer_val = evaluate(measure, zone.core, outer, ctx)
        rel = compare(measure, inner_val, outer_val)
        if measure.sensitivity == "insensitive":
            if rel != "equal":
                violations.append(
                    f"{measure.name}: value changed {outer_val} -> {inner_val} "
                    f"between {tuple(outer)} and nested {tuple(inner)}"
                )
        elif measure.sensitivity == "monotonic":
            bad = "worse" if measure.improves_on == "shrink" else "better"
            if rel == bad:
                violations.append(
                    f"{measure.name}: declared improves-on-{measure.improves_on} but "
                    f"{tuple(inner)} inside {tuple(outer)} went {rel} "
                    f"({outer_val} -> {inner_val})"
                )
    return violations
