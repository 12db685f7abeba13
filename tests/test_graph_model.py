"""Ingestion, normalization, projection, and synthesis."""

import gzip

import pytest

from tkcore import (
    ParseError,
    QuerySpec,
    TemporalEdge,
    TemporalGraph,
    TimeInterval,
    brute_force_txcq,
    canonical_result,
    generate_synthetic,
    load_edge_list,
    make_edge,
    normalize_timestamps,
    parse_edge_list,
    project,
    run_txcq,
)


def test_make_edge_orders_endpoints():
    assert make_edge(5, 2, 9) == TemporalEdge(2, 5, 9)
    assert make_edge(2, 5, 9) == TemporalEdge(2, 5, 9)


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


def test_parse_assigns_dense_ids_by_first_appearance():
    g = parse_edge_list(["carol bob 3", "alice carol 1", "bob alice 2"])
    assert g.labels == ("carol", "bob", "alice")
    assert g.id_of("carol") == 0 and g.id_of("alice") == 2
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
    assert w.covers(3) and w.covers(7) and not w.covers(8)
    assert w.span == 4
    assert w.duration == 5
