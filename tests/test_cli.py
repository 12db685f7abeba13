"""The command line interface, run in-process."""

import csv
import gzip
import importlib.util
import io
import json
from pathlib import Path

import pytest

from tkcore import (
    QueryResult,
    QuerySpec,
    ResultEntry,
    cli,
    generate_synthetic,
    load_edge_list,
    run_txcq_walk,
)
from tkcore.cli import main

G0_TEXT = "a b 1\nb c 2\na c 3\nc d 4\na b 5\n"


@pytest.fixture
def g0_file(tmp_path):
    path = tmp_path / "g0.txt"
    path.write_text(G0_TEXT)
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- query ------------------------------------------------------------------


def test_query_json_enumerate(g0_file, capsys):
    code, out, _ = run_cli(capsys, "query", "--input", g0_file, "--k", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["query"]["k"] == 2
    assert payload["query"]["window"] == [1, 5]
    assert payload["query"]["algorithm"] == "otcd-star"
    assert "te - ts + 1" in payload["metadata"]["duration_convention"]
    assert payload["metadata"]["vertex_count"] == 4
    zones = payload["zones"]
    assert [z["tti"] for z in zones] == [[1, 3], [1, 5], [2, 5]]
    assert zones[0]["ltis"] == [[1, 4]]
    assert zones[0]["vertices"] == ["a", "b", "c"]
    assert zones[0]["edge_count"] == 3
    assert zones[0]["x_value"] is None
    assert payload["stats"]["cells_visited"] == 6


def test_query_csv_constrain(g0_file, capsys):
    code, out, _ = run_cli(
        capsys,
        "query", "--input", g0_file, "--k", "2", "--format", "csv",
        "--measure", "burstiness", "--mode", "constrain", "--sigma", "3/2",
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["tti_ts", "tti_te", "ltis", "vertices", "edge_count", "x_value", "qualifying"]
    assert rows[1] == ["1", "3", "1:4", "a;b;c", "3", "", "1:3;1:4"]
    assert rows[2] == ["2", "5", "2:5", "a;b;c", "3", "", "2:5"]
    assert len(rows) == 3


def test_query_renders_exact_rationals(g0_file, capsys):
    code, out, _ = run_cli(
        capsys,
        "query", "--input", g0_file, "--k", "2", "--ts", "2", "--te", "5",
        "--measure", "burstiness", "--mode", "optimize",
    )
    assert code == 0
    (zone,) = json.loads(out)["zones"]
    assert zone["x_value"] == {"rational": "3/2", "decimal": 1.5}
    code, out, _ = run_cli(
        capsys,
        "query", "--input", g0_file, "--k", "2",
        "--measure", "size", "--mode", "optimize",
    )
    values = {tuple(z["tti"]): z["x_value"] for z in json.loads(out)["zones"]}
    assert values[(1, 3)] == {"rational": "3", "decimal": 3.0}  # no "3/1"


def test_query_accepts_every_engine(g0_file, capsys):
    ttis = {}
    for algorithm in ("tcd", "otcd", "otcd-star", "tcd-star", "oracle"):
        extra = []
        if algorithm in ("tcd-star",):
            extra = ["--measure", "size", "--mode", "optimize"]
        code, out, _ = run_cli(
            capsys, "query", "--input", g0_file, "--k", "2", "--algorithm", algorithm, *extra
        )
        assert code == 0
        ttis[algorithm] = [tuple(z["tti"]) for z in json.loads(out)["zones"]]
    assert ttis["tcd"] == ttis["otcd"] == ttis["otcd-star"] == ttis["oracle"]
    assert ttis["tcd-star"] == [(1, 3), (1, 5), (2, 5)]  # all zones tie on size


def test_query_writes_output_file(g0_file, tmp_path, capsys):
    target = tmp_path / "result.json"
    code, out, _ = run_cli(
        capsys, "query", "--input", g0_file, "--k", "2", "--output", str(target)
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["stats"]["algorithm"] == "otcd-star"


def test_query_synthetic_input(capsys):
    code, out, _ = run_cli(
        capsys, "query", "--input", "synthetic:20,60,8,uniform", "--seed", "3", "--k", "2"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["metadata"]["edge_count"] == 60


def test_granularity_remaps_timestamps(tmp_path, capsys):
    path = tmp_path / "coarse.txt"
    path.write_text("a b 100\nb c 104\na c 110\n")
    for gran in ("bucket:5", "rank"):
        code, out, _ = run_cli(
            capsys, "query", "--input", str(path), "--k", "2", "--granularity", gran
        )
        assert code == 0
        zones = json.loads(out)["zones"]
        assert [z["tti"] for z in zones] == [[1, 3]]


def test_bucket_granularity_agrees_with_the_oracle(tmp_path, capsys):
    # a bucket merges stamps 1 and 2 here, so the graph must re-sort its edges
    path = tmp_path / "merged.txt"
    path.write_text("a b 2\na c 2\nb c 2\ne f 1\ne g 1\nf g 1\n")
    small = "synthetic:60,600,20,planted-community"
    for argv in (
        ("--input", str(path), "--k", "2", "--granularity", "bucket:2"),
        ("--input", small, "--seed", "1", "--k", "2", "--granularity", "bucket:2"),
        ("--input", small, "--seed", "1", "--k", "2", "--granularity", "rank"),
    ):
        code, out, _ = run_cli(capsys, "verify", *argv)
        assert code == 0, argv
        assert json.loads(out)["verified"] is True


def test_param_changes_a_measured_answer(capsys):
    base = ("query", "--input", "synthetic:60,600,20,planted-community", "--seed", "1",
            "--k", "2", "--measure", "periodicity", "--mode", "optimize")
    code, out, _ = run_cli(capsys, *base)
    assert code == 0
    default = json.loads(out)
    code, out, _ = run_cli(capsys, *base, "--param", "p=3")
    assert code == 0
    spaced = json.loads(out)
    assert default["query"]["measure_params"] == {"p": 1}
    assert spaced["query"]["measure_params"] == {"p": 3}
    assert {z["x_value"]["rational"] for z in default["zones"]} == {"2"}
    assert {z["x_value"]["rational"] for z in spaced["zones"]} == {"1"}
    assert len(spaced["zones"]) > len(default["zones"])


# -- exit codes ---------------------------------------------------------------


def test_usage_errors_exit_2(g0_file, capsys):
    cases = [
        ("query", "--input", g0_file, "--k", "2", "--algorithm", "tcd",
         "--measure", "size", "--mode", "optimize"),
        ("query", "--input", g0_file, "--k", "2", "--measure", "votes"),
        ("query", "--input", g0_file, "--k", "2", "--param", "p=2"),
        ("query", "--input", g0_file, "--k", "2", "--measure", "periodicity", "--param", "=3"),
        ("query", "--input", g0_file, "--k", "2", "--measure", "periodicity", "--param", "p=1/0"),
        ("query", "--input", g0_file, "--k", "2", "--measure", "engagement", "--mode", "constrain",
         "--sigma", "1/0"),
        ("query", "--input", g0_file, "--k", "2", "--measure", "size", "--mode", "constrain"),
        ("query", "--input", g0_file, "--k", "0"),
        ("query", "--input", g0_file, "--k", "2", "--ts", "5", "--te", "1"),
        ("query", "--input", "synthetic:20,60", "--k", "2"),
        ("query", "--input", g0_file, "--k", "2", "--granularity", "weekly"),
        ("query", "--input", g0_file, "--k", "2", "--granularity", "bucket:2.5"),
        ("query", "--input", "synthetic:10,100,60,uniform", "--k", "2", "--algorithm", "oracle"),
    ]
    for argv in cases:
        code, _, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert err.startswith("error:") or "usage:" in err
    with_message = [
        (("query", "--input", "synthetic:60,600,20,planted-community", "--seed", "1", "--k", "2",
          "--measure", "size", "--param", "q=3", "--mode", "optimize"), "no parameter 'q'"),
        (("query", "--input", "synthetic:60,600,20,planted-community", "--seed", "1", "--k", "2",
          "--measure", "periodicity", "--param", "p=2", "--param", "p=9", "--mode", "optimize"),
         "parameter p given twice"),
        (("query", "--input", "synthetic:a,b,c,uniform", "--k", "2"), "bad synthetic sizes"),
        (("query", "--input", "synthetic:1,5,5,uniform", "--k", "2"), "need at least two vertices"),
        (("query", "--input", g0_file, "--k", "2", "--granularity", "rank:x"), "takes no argument"),
        (("query", "--input", g0_file, "--k", "2", "--granularity", "bucket:0"), "positive"),
        (("bench", "--input", g0_file, "--k", "2", "--repeat", "0"), "--repeat must be positive"),
        (("query", "--input", g0_file, "--k", "2", "--algorithm", "tcd-star"),
         "run_tcd_star needs a measure"),
        (("query", "--input", g0_file, "--k", "2", "--algorithm", "tcd-star", "--measure", "size"),
         "answers optimize or constrain"),
    ]
    for argv, message in with_message:
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error:") and message in err, argv


def test_non_finite_thresholds_exit_2(g0_file, capsys):
    for sigma in ("nan", "inf", "-inf"):
        code, out, err = run_cli(
            capsys, "query", "--input", g0_file, "--k", "2",
            "--measure", "engagement", "--mode", "constrain", f"--sigma={sigma}",
        )
        assert code == 2, sigma
        assert out == ""
        assert "finite" in err
    for p in ("nan", "inf", "-inf"):
        code, out, err = run_cli(
            capsys, "query", "--input", g0_file, "--k", "2",
            "--measure", "periodicity", "--mode", "optimize", "--param", f"p={p}",
        )
        assert code == 2, p
        assert out == ""
        assert "finite" in err


def test_io_errors_exit_3(g0_file, tmp_path, capsys):
    code, _, err = run_cli(capsys, "query", "--input", str(tmp_path / "ghost.txt"), "--k", "2")
    assert code == 3
    assert "cannot read" in err
    bad = tmp_path / "bad.txt"
    bad.write_text("a b 1\nbroken line\n")
    code, _, err = run_cli(capsys, "query", "--input", str(bad), "--k", "2")
    assert code == 3
    assert "line 2" in err
    loops = tmp_path / "loops.txt"
    loops.write_text("a a 1\nb b 2\n")
    for granularity in ((), ("--granularity", "rank"), ("--granularity", "bucket:3")):
        code, _, err = run_cli(capsys, "query", "--input", str(loops), "--k", "2", *granularity)
        assert code == 3, granularity
        assert "input graph has no edges" in err
    missing = tmp_path / "missing" / "out.json"
    code, _, err = run_cli(capsys, "query", "--input", g0_file, "--k", "2", "--output", str(missing))
    assert code == 3
    assert "cannot write" in err


def test_a_non_utf8_edge_list_exits_3(tmp_path, capsys):
    bad = tmp_path / "latin1.txt"
    bad.write_bytes(G0_TEXT.encode() + b"caf\xe9 d 6\n")
    code, out, err = run_cli(capsys, "query", "--input", str(bad), "--k", "2")
    assert (code, out) == (3, "")
    assert f"cannot read {bad}" in err and "utf-8" in err


def test_a_truncated_or_corrupt_gzip_edge_list_exits_3(tmp_path, capsys):
    packed = gzip.compress(G0_TEXT.encode() * 20, mtime=0)
    cut = tmp_path / "cut.txt.gz"
    cut.write_bytes(packed[: len(packed) // 2])
    corrupt = tmp_path / "corrupt.txt.gz"
    corrupt.write_bytes(packed[:10] + bytes([packed[10] ^ 0xFF]) + packed[11:])  # a bad deflate block header
    for path, why in ((cut, "end-of-stream"), (corrupt, "decompressing")):
        code, out, err = run_cli(capsys, "query", "--input", str(path), "--k", "2")
        assert (code, out) == (3, ""), path
        assert f"cannot read {path}" in err and why in err


def test_argparse_plumbing(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()
    assert main([]) == 2
    capsys.readouterr()


# -- verify -------------------------------------------------------------------


def test_verify_passes_on_every_engine(g0_file, capsys):
    for algorithm in ("tcd", "otcd", "otcd-star", "tcd-star"):
        extra = ["--measure", "size", "--mode", "optimize"] if algorithm == "tcd-star" else []
        code, out, _ = run_cli(
            capsys, "verify", "--input", g0_file, "--k", "2", "--algorithm", algorithm, *extra
        )
        assert code == 0, algorithm
        payload = json.loads(out)
        assert payload["verified"] is True
        assert payload["zones_oracle"] == 3


def test_verify_measured_modes(g0_file, capsys):
    code, out, _ = run_cli(
        capsys,
        "verify", "--input", g0_file, "--k", "2",
        "--measure", "engagement", "--mode", "constrain", "--sigma", "2/3",
    )
    assert code == 0
    assert json.loads(out)["verified"] is True


def test_verify_reports_injected_fault(g0_file, capsys, monkeypatch):
    execute = cli._execute

    def drop_first_entry(g, spec, algorithm):
        result = execute(g, spec, algorithm)
        return QueryResult(result.entries[1:], result.stats)

    monkeypatch.setattr(cli, "_execute", drop_first_entry)
    code, out, _ = run_cli(capsys, "verify", "--input", g0_file, "--k", "2")
    assert code == 1
    payload = json.loads(out)
    assert payload["verified"] is False
    assert any("oracle-only" in d for d in payload["differences"])


def test_verify_lists_the_differing_winners_and_intervals(g0_file, capsys, monkeypatch):
    # the faulty engine drops the first zone and reports each other zone as
    # a winner of value 0 whose every member qualifies
    def faulty(g, spec):
        result = run_txcq_walk(g, QuerySpec(spec.k, spec.window))
        entries = tuple(ResultEntry(e.zone, e.zone.members, 0) for e in result.entries[1:])
        return QueryResult(entries, result.stats)

    monkeypatch.setattr(cli, "run_txcq_walk", faulty)
    verify = ("verify", "--input", g0_file, "--k", "2", "--measure", "burstiness")
    code, out, _ = run_cli(capsys, *verify, "--mode", "optimize")
    assert code == 1
    assert json.loads(out)["differences"] == [
        "optimal value differs: engine 0 vs oracle 2",
        "engine-only winning zone [1, 5]",
        "engine-only winning zone [2, 5]",
        "oracle-only winning zone [1, 3]",
    ]
    code, out, _ = run_cli(capsys, *verify, "--mode", "constrain", "--sigma", "3/2")
    assert code == 1
    assert json.loads(out)["differences"] == [
        "engine-only qualifying interval [1, 5]",
        "oracle-only qualifying interval [1, 3]",
        "oracle-only qualifying interval [1, 4]",
    ]


def test_verify_refuses_oversized_inputs(capsys):
    code, _, err = run_cli(
        capsys, "verify", "--input", "synthetic:50,3000,10,uniform", "--k", "2"
    )
    assert code == 2
    assert "2000" in err


def test_oracle_caps_check_the_clamped_window(capsys):
    # stamps 1..10: the window (1, 100) clamps to span 9, which the oracle walks
    graph = "synthetic:12,120,10,uniform"
    code, out, err = run_cli(capsys, "verify", "--input", graph, "--k", "2", "--ts", "1", "--te", "100")
    assert code == 0, err
    assert json.loads(out)["verified"] is True
    code, out, err = run_cli(
        capsys, "query", "--input", graph, "--k", "2", "--algorithm", "oracle", "--ts", "1", "--te", "100"
    )
    assert code == 0, err
    assert json.loads(out)["query"]["window"] == [1, 100]
    code, _, err = run_cli(capsys, "verify", "--input", "synthetic:10,100,60,uniform", "--k", "2")
    assert code == 2
    assert "oracle refuses window span" in err


# -- bench ---------------------------------------------------------------------


def test_bench_emits_one_csv_row_per_run(g0_file, capsys):
    code, out, _ = run_cli(capsys, "bench", "--input", g0_file, "--k", "2", "--repeat", "2")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][:3] == ["algorithm", "repeat", "wall_ms"]
    assert [r[0] for r in rows[1:]] == ["tcd", "tcd", "otcd", "otcd", "otcd-star", "otcd-star"]


def test_bench_measured_default_algorithms(g0_file, capsys):
    code, out, _ = run_cli(
        capsys,
        "bench", "--input", g0_file, "--k", "2", "--repeat", "1",
        "--measure", "burstiness", "--mode", "optimize",
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert [r[0] for r in rows[1:]] == ["otcd-star", "tcd-star"]


def test_bench_rejects_unknown_algorithm(g0_file, capsys):
    code, _, err = run_cli(
        capsys, "bench", "--input", g0_file, "--k", "2", "--algorithms", "tcd,warp"
    )
    assert code == 2
    assert "warp" in err


# -- gen -------------------------------------------------------------------------


def test_gen_is_deterministic_and_round_trips(tmp_path, capsys):
    out1 = tmp_path / "a.txt"
    out2 = tmp_path / "b.txt.gz"
    args = ["gen", "--vertices", "20", "--edges", "80", "--timestamps", "9",
            "--model", "planted-community", "--seed", "5"]
    code, _, err = run_cli(capsys, *args, "--output", str(out1))
    assert code == 0
    assert "wrote 80 edges" in err
    code, _, _ = run_cli(capsys, *args, "--output", str(out2))
    assert code == 0
    with gzip.open(out2, "rt") as fh:
        assert fh.read() == out1.read_text()

    direct = generate_synthetic(20, 80, 9, model="planted-community", seed=5)
    reparsed = load_edge_list(out2)
    def multiset(g):
        return sorted(
            (tuple(sorted((g.label_of(e.u), g.label_of(e.v)))), e.t) for e in g.edges
        )
    assert multiset(reparsed) == multiset(direct)


def test_gen_to_stdout(capsys):
    code, out, _ = run_cli(
        capsys, "gen", "--vertices", "5", "--edges", "6", "--timestamps", "3"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("#")
    assert len(lines) == 7


def test_gen_rejects_bad_sizes(capsys):
    code, _, err = run_cli(
        capsys, "gen", "--vertices", "1", "--edges", "6", "--timestamps", "3"
    )
    assert code == 2
    assert "two vertices" in err


# -- byte identity ----------------------------------------------------------


def test_cli_output_matches_the_pinned_corpus():
    # every command of tools/cli_corpus.py gives the digest pinned in
    # tests/cli_corpus.txt: exit code, stdout (timings zeroed) and stderr
    here = Path(__file__).resolve().parent
    spec = importlib.util.spec_from_file_location("cli_corpus", here.parent / "tools" / "cli_corpus.py")
    corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(corpus)
    pinned = (here / "cli_corpus.txt").read_text().splitlines()
    assert list(corpus.lines(main)) == pinned
