"""Ingestion, normalization, projection, and synthesis."""

import gzip
from collections import Counter
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from tkcore import (
    MeasureDescriptor,
    ParseError,
    QuerySpec,
    TemporalEdge,
    TemporalGraph,
    TimeInterval,
    brute_force_txcq,
    canonical_result,
    generate_synthetic,
    get_measure,
    load_edge_list,
    normalize_timestamps,
    parse_edge_list,
    project,
    run_txcq,
    run_txcq_walk,
)
from tkcore import graph as graph_module
from tkcore.graph import _runs_of


def test_from_edges_sorts_canonically_and_keeps_parallel_edges():
    g = TemporalGraph.from_edges(3, [(2, 1, 7), (0, 1, 3), (1, 2, 7), (1, 0, 3)])
    assert g.edges == (
        TemporalEdge(0, 1, 3),
        TemporalEdge(0, 1, 3),
        TemporalEdge(1, 2, 7),
        TemporalEdge(1, 2, 7),
    )
    assert g.edge_count == 4
    assert g.time_range() == TimeInterval(3, 7)


def test_from_edges_rejects_self_loops_and_range_violations():
    with pytest.raises(ValueError):
        TemporalGraph.from_edges(2, [(0, 0, 1)])
    with pytest.raises(ValueError):
        TemporalGraph.from_edges(2, [(0, 2, 1)])
    with pytest.raises(ValueError):
        TemporalGraph.from_edges(2, [(0, 1, 1)], labels=("only-one",))


def test_from_edges_refuses_non_integer_ids_and_stamps():
    for edge in [(0, 1, 1.5), (0.7, 1, 1), (0, 1.0, 1), (0, 1, "3")]:
        with pytest.raises(ValueError, match="must be integers"):
            TemporalGraph.from_edges(2, [edge])


_LABELS = ["a", "b", "c", "d", "x1", "10", "2"]
_edge_lines = st.tuples(
    st.sampled_from(_LABELS),
    st.sampled_from(_LABELS),
    st.integers(min_value=-3, max_value=6) | st.integers(min_value=10**9, max_value=10**9 + 3),
    st.sampled_from(["", " extra", " 7 junk"]),
    st.sampled_from(["", "  ", "\t"]),
    st.sampled_from(["", "\n", "  \n"]),
).map(lambda p: (p[0], p[1], p[2], f"{p[4]}{p[0]} {p[1]}  {p[2]}{p[3]}{p[5]}"))
_other_lines = st.sampled_from(["", "   ", "\n", "# a comment", "  # 1 2 3", "#x y 4"])


@given(st.lists(_edge_lines | _other_lines.map(lambda line: (None, None, None, line)), max_size=40))
@settings(max_examples=300, deadline=None)
def test_parse_from_edges_and_the_positional_constructor_agree(items):
    labels: dict = {}
    raw, loops = [], 0
    for a, b, t, _ in items:
        if a is None:
            continue
        u, v = (labels.setdefault(x, len(labels)) for x in (a, b))
        if u == v:
            loops += 1
        else:
            raw.append((u, v, t))
    lines = [line for *_, line in items]
    if not labels:
        with pytest.raises(ParseError):
            parse_edge_list(lines)
        return
    n, names = len(labels), tuple(labels)
    edges = sorted((TemporalEdge(min(u, v), max(u, v), t) for u, v, t in raw), key=lambda e: (e.t, e.u, e.v))
    runs = tuple((e.u, e.v, e.t, c) for e, c in Counter(edges).items())
    stamps = tuple(sorted({t for _, _, t in raw}))
    graphs = [
        parse_edge_list(lines),
        TemporalGraph.from_edges(n, raw, names, loops),
        TemporalGraph(n, tuple(edges), names, loops),
        TemporalGraph(n, [(v, u, t) for u, v, t in raw], names, loops),  # every endpoint pair reversed
    ]
    for g in graphs:
        assert g == graphs[0] and hash(g) == hash(graphs[0])
        assert (g.vertex_count, g.labels, g.self_loops_dropped) == (n, names, loops)
        assert g.edges == tuple(edges)
        assert g.pair_runs == runs
        assert g.edge_count == len(raw)
        assert g.timestamps == stamps
        assert (g.min_t, g.max_t) == ((stamps[0], stamps[-1]) if stamps else (None, None))
        assert g.time_range() == (TimeInterval(stamps[0], stamps[-1]) if stamps else None)
    if raw:  # one parallel edge more is a different multiset
        bigger = TemporalGraph.from_edges(n, raw + raw[:1], names, loops)
        assert bigger != graphs[0] and bigger.edge_count == len(raw) + 1
    with pytest.raises(ValueError, match="self-loop"):
        TemporalGraph(n, raw + [(n - 1, n - 1, 1)], names, loops)


def test_queries_leave_a_parsed_graphs_edges_unexpanded():
    planted = generate_synthetic(60, 900, 12, model="planted-community", seed=5)
    g = parse_edge_list(f"{u} {v} {t}" for u, v, t in planted.edges)
    rng = g.time_range()
    odd = MeasureDescriptor("odd_edges", "nonmonotonic", "higher", lambda core, w, ctx: core.edge_count % 2)
    specs = [QuerySpec(2, rng), QuerySpec(3, (rng.ts + 2, rng.te - 2))]
    for name in ("burstiness", "periodicity", "engagement"):
        specs.append(QuerySpec(2, rng, get_measure(name), "optimize"))
    specs += [
        QuerySpec(2, rng, get_measure("growth_rate"), "constrain", sigma=1),
        QuerySpec(2, rng, get_measure("engagement"), "constrain", sigma=Fraction(3, 4)),
        QuerySpec(2, rng, odd, "optimize"),
    ]
    for spec in specs:
        assert run_txcq(g, spec).entries
        run_txcq_walk(g, spec)
    assert "edges" not in vars(g)
    assert g.core_indexes  # the index route ran


def test_parse_assigns_dense_ids_by_first_appearance():
    g = parse_edge_list(["carol bob 3", "alice carol 1", "bob alice 2"])
    assert g.labels == ("carol", "bob", "alice")
    assert g.labels.index("carol") == 0 and g.labels.index("alice") == 2
    assert g.label_of(1) == "bob"
    # canonical storage is sorted by timestamp, endpoints normalized
    assert [e.t for e in g.edges] == [1, 2, 3]


def test_parse_skips_comments_blanks_and_extra_fields():
    lines = [
        "# a header",
        "",
        "   ",
        "u v 4 trailing junk ignored",
        "# another",
        "v w 5",
    ]
    g = parse_edge_list(lines)
    assert g.edge_count == 2
    assert g.vertex_count == 3


def test_parse_tallies_self_loops_without_keeping_them():
    g = parse_edge_list(["a a 1", "a b 2", "b b 3", "b b 4"])
    assert g.self_loops_dropped == 3
    assert g.edge_count == 1
    assert g.vertex_count == 2  # loop endpoints still claim their ids


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as info:
        parse_edge_list(["a b 1", "malformed"])
    assert info.value.line_no == 2
    with pytest.raises(ParseError) as info:
        parse_edge_list(["a b notatime"])
    assert info.value.line_no == 1
    with pytest.raises(ParseError) as info:
        parse_edge_list(["# only a comment"])
    assert info.value.line_no == 0


def _reference_parse(lines) -> TemporalGraph:
    """The line-by-line parser `parse_edge_list` replaced: it splits every
    line, repeats included."""
    label_ids: dict = {}
    assign = label_ids.setdefault
    counts: dict = {}
    loops = 0
    for line_no, raw in enumerate(lines, start=1):
        parts = raw.split()
        if not parts or parts[0].startswith("#"):
            continue
        if len(parts) < 3:
            raise ParseError(line_no, f"expected 'src dst timestamp', got {raw.strip()!r}")
        try:
            t = int(parts[2])
        except ValueError:
            raise ParseError(line_no, f"timestamp is not an integer: {parts[2]!r}") from None
        u = assign(parts[0], len(label_ids))
        v = assign(parts[1], len(label_ids))
        if u < v:
            key = (t, u, v)
        elif v < u:
            key = (t, v, u)
        else:
            loops += 1
            continue
        counts[key] = counts.get(key, 0) + 1
    if not label_ids:
        raise ParseError(0, "no edges in input")
    return TemporalGraph._of_runs(len(label_ids), _runs_of(counts), tuple(label_ids), loops)


def _outcome(parse, lines):
    """A parse's graph key, or the line number and message it refused with."""
    try:
        g = parse(lines)
    except ParseError as exc:
        return "refused", exc.line_no, str(exc)
    return "parsed", g.vertex_count, g.labels, g.pair_runs, g.self_loops_dropped


_readable_lines = st.sampled_from([
    "a b 1", "b a 1", "a b 2", "c a 1", "c c 3", "b d 2 extra", " d a  1\n", "a b 1\n", "e d 10000000000",
    "", "  ", "\n", "# a b 1", "#x y 4", "  # 1 2 3",
])
_malformed_lines = st.sampled_from(["a", "a b", " b c\n", "a b x", "c d 1.5", "d c -"])


@given(
    st.lists(_readable_lines, max_size=60),
    st.lists(st.tuples(st.integers(0, 60), _malformed_lines), max_size=3),
    st.sampled_from([1, 2, 3, 5, 8, graph_module._BLOCK_LINES]),
)
@settings(max_examples=400, deadline=None)
def test_parse_agrees_with_the_line_by_line_reference(lines, malformed, block):
    # the pools are small, so most lines repeat an earlier one
    for at, line in malformed:
        lines.insert(at, line)
    with mock.patch.object(graph_module, "_BLOCK_LINES", block):
        got = _outcome(parse_edge_list, lines)
        assert got == _outcome(parse_edge_list, iter(lines))
    assert got == _outcome(_reference_parse, lines)


def test_a_malformed_repeat_first_seen_in_the_second_block_keeps_its_line_number():
    block = graph_module._BLOCK_LINES
    good = [f"v{i % 50} w{i % 7} {i % 11}" for i in range(block + 500)]
    lines = good[: block + 123] + ["a b when"] + good[block + 123 :] + ["a b when"] * 3
    assert lines[:block].count("a b when") == 0
    for source in (lines, (line for line in lines)):
        with pytest.raises(ParseError) as info:
            parse_edge_list(source)
        assert info.value.line_no == block + 124
        assert str(info.value) == f"line {block + 124}: timestamp is not an integer: 'when'"
    assert _outcome(parse_edge_list, lines) == _outcome(_reference_parse, lines)


def test_parse_reads_a_one_pass_generator_across_blocks():
    block = graph_module._BLOCK_LINES
    lines = [f"{i % 97} {(i * 7) % 89 + 100} {i % 13}" for i in range(2 * block + 321)] + ["5 5 1"] * 4
    g = parse_edge_list(line for line in lines)
    assert _outcome(parse_edge_list, lines)[1:] == (g.vertex_count, g.labels, g.pair_runs, g.self_loops_dropped)
    assert g == _reference_parse(lines)
    assert g.edge_count == 2 * block + 321 and g.self_loops_dropped == 4


def test_load_edge_list_reads_gzip(tmp_path):
    plain = tmp_path / "g.txt"
    plain.write_text("a b 1\nb c 2\n")
    packed = tmp_path / "g.txt.gz"
    with gzip.open(packed, "wt") as fh:
        fh.write("a b 1\nb c 2\n")
    assert load_edge_list(plain).edges == load_edge_list(packed).edges


def test_project_keeps_vertex_universe():
    g = TemporalGraph.from_edges(4, [(0, 1, 1), (1, 2, 5), (2, 3, 9)])
    p = project(g, (4, 6))
    assert p.vertex_count == 4
    assert p.labels == g.labels
    assert [tuple(e) for e in p.edges] == [(1, 2, 5)]
    assert project(g, (10, 20)).edge_count == 0


def test_normalize_bucket_and_rank():
    g = TemporalGraph.from_edges(3, [(0, 1, 100), (1, 2, 104), (0, 2, 110)])
    b = normalize_timestamps(g, "bucket", width=5)
    assert [e.t for e in b.edges] == [1, 1, 3]
    r = normalize_timestamps(g, "rank")
    assert [e.t for e in r.edges] == [1, 2, 3]
    # rank is idempotent
    assert normalize_timestamps(r, "rank").edges == r.edges
    # the runs of one pair at two stamps of one bucket merge
    pair = TemporalGraph.from_edges(2, [(0, 1, 100), (0, 1, 101), (0, 1, 101)])
    merged = normalize_timestamps(pair, "bucket", width=5)
    assert merged.pair_runs == ((0, 1, 1, 3),) and merged == TemporalGraph.from_edges(2, [(0, 1, 1)] * 3)


def test_normalize_bucket_keeps_edges_sorted():
    # stamps 1 and 2 share a bucket, so the later stamp's edges must not
    # stay ahead of the earlier stamp's
    g = TemporalGraph.from_edges(6, [(0, 1, 2), (0, 2, 2), (1, 2, 2), (3, 4, 1), (3, 5, 1), (4, 5, 1)])
    b = normalize_timestamps(g, "bucket", width=2)
    assert [(e.t, e.u, e.v) for e in b.edges] == sorted((e.t, e.u, e.v) for e in b.edges)
    assert [(e.u, e.v) for e in b.edges] == [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]
    spec = QuerySpec(2, (1, 1))
    assert canonical_result(run_txcq(b, spec), "enumerate") == canonical_result(
        brute_force_txcq(b, spec), "enumerate"
    )


def test_normalize_validates_arguments():
    g = TemporalGraph.from_edges(2, [(0, 1, 5)])
    with pytest.raises(ValueError):
        normalize_timestamps(g, "bucket")
    with pytest.raises(ValueError):
        normalize_timestamps(g, "bucket", width=0)
    # a width that is not an integer would leave float stamps
    for width in (2.5, "2"):
        with pytest.raises(ValueError, match="positive integer"):
            normalize_timestamps(g, "bucket", width=width)
    assert normalize_timestamps(g, "bucket", width=2).pair_runs == ((0, 1, 1, 1),)
    with pytest.raises(ValueError):
        normalize_timestamps(g, "fourier")
    empty = TemporalGraph.from_edges(2, [])
    with pytest.raises(ValueError):
        normalize_timestamps(empty, "rank")


@pytest.mark.parametrize("model", ["uniform", "preferential", "planted-community"])
def test_generator_is_deterministic_and_well_formed(model):
    a = generate_synthetic(30, 120, 10, model=model, seed=7)
    b = generate_synthetic(30, 120, 10, model=model, seed=7)
    c = generate_synthetic(30, 120, 10, model=model, seed=8)
    assert a.edges == b.edges
    assert a.edges != c.edges
    assert a.edge_count == 120
    assert all(1 <= e.t <= 10 for e in a.edges)
    assert all(e.u != e.v for e in a.edges)


def test_generator_rejects_bad_sizes():
    with pytest.raises(ValueError):
        generate_synthetic(1, 5, 5, model="uniform", seed=0)
    with pytest.raises(ValueError):
        generate_synthetic(5, 0, 5, model="uniform", seed=0)
    with pytest.raises(ValueError):
        generate_synthetic(5, 5, 5, model="small-world", seed=0)


def test_interval_helpers():
    w = TimeInterval(3, 7)
    assert w.contains(TimeInterval(4, 6))
    assert w.contains(w)
    assert not w.contains(TimeInterval(2, 6))
    assert w.span == 4
    assert w.duration == 5
