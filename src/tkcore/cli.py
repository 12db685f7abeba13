"""Command line interface.

Subcommands:
  query   run a temporal k-core query and print zones as JSON or CSV
  verify  run an engine and the brute-force oracle, diff the results
  bench   time one query under several algorithms, emit CSV records
  gen     write a synthetic timestamped edge list

Exit codes: 0 success, 1 verification mismatch, 2 usage or contract error,
3 input/output error.
"""

from __future__ import annotations

import argparse
import csv
import gzip
import io
import json
import sys
import time
import zlib
from fractions import Fraction
from itertools import repeat

from .graph import (
    ContractViolation,
    ParseError,
    TemporalGraph,
    generate_synthetic,
    load_edge_list,
    normalize_timestamps,
)
from .measures import get_measure
from .oracle import MAX_ORACLE_EDGES, MAX_ORACLE_SPAN, brute_force_txcq
from .tcq import clamp_window, run_otcd, run_tcd
from .txcq import (
    MODES,
    QueryResult,
    QuerySpec,
    QueryStats,
    ResultEntry,
    ZoneRecord,
    canonical_result,
    run_tcd_star,
    run_txcq_walk,
)

ALGORITHMS = ("tcd", "otcd", "otcd-star", "tcd-star", "oracle")
DURATION_CONVENTION = (
    "closed interval [ts, te]; duration = te - ts + 1 timestamps; "
    "span measures report te - ts"
)


class UsageError(Exception):
    pass


class InputError(Exception):
    pass


# -- option plumbing ---------------------------------------------------------


def _add_input_options(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--input",
        required=True,
        help="edge-list path ('.gz' ok) or synthetic:VERTICES,EDGES,TIMESTAMPS,MODEL",
    )
    p.add_argument("--seed", type=int, default=0, help="seed for synthetic inputs")
    p.add_argument(
        "--granularity",
        default=None,
        metavar="bucket:WIDTH|rank",
        help="remap raw timestamps before querying",
    )


def _add_query_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--k", type=int, required=True, help="minimum distinct-neighbor degree")
    p.add_argument("--ts", type=int, default=None, help="window start (default: first timestamp)")
    p.add_argument("--te", type=int, default=None, help="window end (default: last timestamp)")
    p.add_argument("--measure", default=None, help="measure name for optimize/constrain")
    p.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="measure parameter, repeatable",
    )
    p.add_argument("--mode", choices=MODES, default="enumerate")
    p.add_argument("--sigma", default=None, help="threshold for constrain mode")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tkcore",
        description="Temporal k-core queries over sliding subintervals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    q = sub.add_parser("query", help="answer one query and print the zones")
    _add_input_options(q)
    _add_query_options(q)
    q.add_argument("--algorithm", choices=ALGORITHMS, default="otcd-star")
    q.add_argument("--format", choices=("json", "csv"), default="json")
    q.add_argument("--output", default=None, help="write here instead of stdout")
    q.set_defaults(func=cmd_query)

    v = sub.add_parser("verify", help="diff an engine against the brute-force oracle")
    _add_input_options(v)
    _add_query_options(v)
    v.add_argument("--algorithm", choices=("tcd", "otcd", "otcd-star", "tcd-star"), default="otcd-star")
    v.set_defaults(func=cmd_verify)

    b = sub.add_parser("bench", help="time one query under several algorithms")
    _add_input_options(b)
    _add_query_options(b)
    b.add_argument("--algorithms", default=None, help="comma list (default depends on mode)")
    b.add_argument("--repeat", type=int, default=3)
    b.add_argument("--output", default=None, help="write CSV here instead of stdout")
    b.set_defaults(func=cmd_bench)

    gen = sub.add_parser("gen", help="generate a synthetic edge list")
    gen.add_argument("--vertices", type=int, required=True)
    gen.add_argument("--edges", type=int, required=True)
    gen.add_argument("--timestamps", type=int, required=True)
    gen.add_argument(
        "--model",
        choices=("uniform", "preferential", "planted-community"),
        default="uniform",
    )
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--output", default=None, help="write here instead of stdout ('.gz' ok)")
    gen.set_defaults(func=cmd_gen)
    return parser


def _parse_number(text: str):
    """Numeric literal as int, fraction, or float; measure values are exact
    rationals, so thresholds stay exact when they look exact."""
    for caster in (int, Fraction, float):
        try:
            return caster(text)
        except ValueError:
            continue
        except ZeroDivisionError:
            raise UsageError(f"zero denominator in {text!r}") from None
    raise UsageError(f"not a number: {text!r}")


def _parse_params(pairs) -> dict:
    out = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise UsageError(f"expected KEY=VALUE, got {pair!r}")
        if key in out:
            raise UsageError(f"parameter {key} given twice")
        out[key] = _parse_number(value)
        if isinstance(out[key], float):  # only nan and inf parse as floats
            raise UsageError(f"parameter {key} must be finite, got {value!r}")
    return out


def _load_graph(args) -> TemporalGraph:
    spec = args.input
    if spec.startswith("synthetic:"):
        parts = spec[len("synthetic:") :].split(",")
        if len(parts) != 4:
            raise UsageError("synthetic input needs VERTICES,EDGES,TIMESTAMPS,MODEL")
        try:
            n_v, n_e, n_t = (int(p) for p in parts[:3])
        except ValueError:
            raise UsageError(f"bad synthetic sizes in {spec!r}") from None
        try:
            g = generate_synthetic(n_v, n_e, n_t, model=parts[3], seed=args.seed)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
    else:
        try:
            g = load_edge_list(spec)
        except (OSError, UnicodeDecodeError, EOFError, zlib.error) as exc:  # unreadable, not UTF-8, cut or corrupt
            raise InputError(f"cannot read {spec}: {exc}") from None
    if g.edge_count == 0:
        raise InputError("input graph has no edges")
    if args.granularity:
        g = _apply_granularity(g, args.granularity)
    return g


def _apply_granularity(g: TemporalGraph, text: str) -> TemporalGraph:
    mode, sep, rest = text.partition(":")
    try:
        if mode == "rank":
            if sep:
                raise UsageError("rank granularity takes no argument")
            return normalize_timestamps(g, "rank")
        if mode == "bucket":
            return normalize_timestamps(g, "bucket", width=int(rest))
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    raise UsageError(f"unknown granularity {text!r}; use bucket:WIDTH or rank")


def _resolve_spec(args, g: TemporalGraph) -> QuerySpec:
    rng = g.time_range()  # `_load_graph` refused a graph with no edges
    ts = args.ts if args.ts is not None else rng.ts
    te = args.te if args.te is not None else rng.te
    if ts > te:
        raise UsageError(f"empty window [{ts}, {te}]")
    measure = None
    if args.measure:
        try:
            measure = get_measure(args.measure)
        except KeyError as exc:
            raise UsageError(exc.args[0]) from None
        params = _parse_params(args.param)
        try:
            measure = measure.with_params(**params)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
    elif args.param:
        raise UsageError("--param needs --measure")
    sigma = _parse_number(args.sigma) if args.sigma is not None else None
    try:
        return QuerySpec(k=args.k, window=(ts, te), measure=measure, mode=args.mode, sigma=sigma)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


# -- execution ---------------------------------------------------------------


def _check_oracle_caps(g: TemporalGraph, spec: QuerySpec) -> None:
    w = clamp_window(g, spec.window)  # the oracle walks the clamped window
    if w is not None and w.span > MAX_ORACLE_SPAN:
        raise UsageError(
            f"oracle refuses window span {w.span} > {MAX_ORACLE_SPAN}; shrink the window"
        )
    if g.edge_count > MAX_ORACLE_EDGES:
        raise UsageError(
            f"oracle refuses {g.edge_count} edges > {MAX_ORACLE_EDGES}; use a smaller input"
        )


def _catalog_result(catalog) -> QueryResult:
    entries = tuple(
        ResultEntry(ZoneRecord(core=snap, tti=tti, ltis=()), None, None)
        for tti, snap in catalog.cores.items()
    )
    return QueryResult(entries, QueryStats.from_walk(catalog.stats))


def _execute(g: TemporalGraph, spec: QuerySpec, algorithm: str) -> QueryResult:
    """Run one algorithm.  The zones of `tcd` and `otcd` carry no LTIs."""
    if algorithm in ("tcd", "otcd"):
        if spec.mode != "enumerate":
            raise UsageError(f"algorithm {algorithm} only enumerates; pick otcd-star or tcd-star")
        run = run_tcd if algorithm == "tcd" else run_otcd
        return _catalog_result(run(g, spec.k, spec.window))
    if algorithm == "otcd-star":
        return run_txcq_walk(g, spec)
    if algorithm == "tcd-star":
        return run_tcd_star(g, spec)
    if algorithm == "oracle":
        _check_oracle_caps(g, spec)
        return brute_force_txcq(g, spec)
    raise UsageError(f"unknown algorithm {algorithm!r}")


# -- rendering ---------------------------------------------------------------


def _render_value(val):
    """A measure value, an int or a Fraction, both ways."""
    return None if val is None else {"rational": _value_text(val), "decimal": float(val)}


def _value_text(val) -> str:
    return "" if val is None else str(val)


def _intervals_text(intervals) -> str:
    return ";".join(f"{iv.ts}:{iv.te}" for iv in intervals)


def _zone_payload(entry: ResultEntry, g: TemporalGraph) -> dict:
    z = entry.zone
    return {
        "tti": list(z.tti),
        "ltis": [list(l) for l in z.ltis] or None,
        "vertices": sorted(g.label_of(v) for v in z.core.vertices),
        "edge_count": z.core.edge_count,
        "x_value": _render_value(entry.x_value),
        "qualifying": (
            [list(iv) for iv in entry.qualifying] if entry.qualifying is not None else None
        ),
    }


def _stats_payload(stats: QueryStats) -> dict:
    return {
        "algorithm": stats.algorithm,
        "phase1_ms": round(stats.phase1_ms, 3),
        "phase2_ms": round(stats.phase2_ms, 3),
        "cells_visited": stats.cells_visited,
        "x_evaluations": stats.x_evaluations,
        "prune_counters": stats.prune_counters,
    }


def _query_payload(args, spec: QuerySpec) -> dict:
    return {
        "input": args.input,
        "k": spec.k,
        "window": list(spec.window),
        "measure": spec.measure.name if spec.measure else None,
        "measure_params": dict(spec.measure.params) if spec.measure else {},
        "mode": spec.mode,
        "sigma": _value_text(spec.sigma) or None,
        "algorithm": getattr(args, "algorithm", None),
        "granularity": args.granularity,
    }


def _write_text(text: str, output) -> None:
    if output is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
        return
    opener = gzip.open if str(output).endswith(".gz") else open
    try:
        with opener(output, "wt") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {output}: {exc}") from None


# -- subcommands --------------------------------------------------------------


def cmd_query(args) -> int:
    g = _load_graph(args)
    spec = _resolve_spec(args, g)
    result = _execute(g, spec, args.algorithm)
    if args.format == "json":
        payload = {
            "query": _query_payload(args, spec),
            "metadata": {
                "tool": "tkcore",
                "duration_convention": DURATION_CONVENTION,
                "vertex_count": g.vertex_count,
                "edge_count": g.edge_count,
                "self_loops_dropped": g.self_loops_dropped,
            },
            "zones": [_zone_payload(e, g) for e in result.entries],
            "stats": _stats_payload(result.stats),
        }
        _write_text(json.dumps(payload, indent=2, sort_keys=True), args.output)
    else:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(
            ["tti_ts", "tti_te", "ltis", "vertices", "edge_count", "x_value", "qualifying"]
        )
        for e in result.entries:
            z = e.zone
            writer.writerow(
                [
                    z.tti.ts,
                    z.tti.te,
                    _intervals_text(z.ltis),
                    ";".join(sorted(g.label_of(v) for v in z.core.vertices)),
                    z.core.edge_count,
                    _value_text(e.x_value),
                    _intervals_text(e.qualifying) if e.qualifying is not None else "",
                ]
            )
        _write_text(buf.getvalue(), args.output)
    return 0


def _describe_diff(eng, ora, mode: str) -> list[str]:
    diffs = []
    if mode == "enumerate":
        eng_set, ora_set = set(eng), set(ora)
        for rec in sorted(eng_set - ora_set, key=lambda r: r[0]):
            diffs.append(f"engine-only zone with tightest interval {list(rec[0])}")
        for rec in sorted(ora_set - eng_set, key=lambda r: r[0]):
            diffs.append(f"oracle-only zone with tightest interval {list(rec[0])}")
    elif mode == "optimize":
        if eng[1] != ora[1]:
            diffs.append(f"optimal value differs: engine {eng[1]} vs oracle {ora[1]}")
        for tti in sorted(eng[0] - ora[0]):
            diffs.append(f"engine-only winning zone {list(tti)}")
        for tti in sorted(ora[0] - eng[0]):
            diffs.append(f"oracle-only winning zone {list(tti)}")
    else:  # member sets, listed only here, to name the intervals that differ
        eng, ora = set(eng), set(ora)
        for iv in sorted(eng - ora):
            diffs.append(f"engine-only qualifying interval {list(iv)}")
        for iv in sorted(ora - eng):
            diffs.append(f"oracle-only qualifying interval {list(iv)}")
    return diffs or ["results differ"]


def cmd_verify(args) -> int:
    g = _load_graph(args)
    spec = _resolve_spec(args, g)
    _check_oracle_caps(g, spec)
    engine_result = _execute(g, spec, args.algorithm)
    oracle_result = brute_force_txcq(g, spec)
    if args.algorithm in ("tcd", "otcd"):
        # these engines report cores without zone geometry
        def cores_key(result):
            cores = ((e.zone.tti, e.zone.core.vertices, e.zone.core.edge_count) for e in result.entries)
            return tuple(sorted(cores, key=lambda r: r[0]))

        eng_key, ora_key = cores_key(engine_result), cores_key(oracle_result)
        mode_for_diff = "enumerate"
    else:
        eng_key = canonical_result(engine_result, spec.mode)
        ora_key = canonical_result(oracle_result, spec.mode)
        mode_for_diff = spec.mode
    match = eng_key == ora_key
    payload = {
        "verified": match,
        "query": _query_payload(args, spec),
        "zones_engine": len(engine_result.entries),
        "zones_oracle": len(oracle_result.entries),
        "x_evaluations_engine": engine_result.stats.x_evaluations,
        "x_evaluations_oracle": oracle_result.stats.x_evaluations,
    }
    if not match:
        payload["differences"] = _describe_diff(eng_key, ora_key, mode_for_diff)
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0 if match else 1


def cmd_bench(args) -> int:
    g = _load_graph(args)
    spec = _resolve_spec(args, g)
    if args.algorithms:
        algorithms = [a.strip() for a in args.algorithms.split(",") if a.strip()]
    elif spec.mode == "enumerate":
        algorithms = ["tcd", "otcd", "otcd-star"]
    else:
        algorithms = ["otcd-star", "tcd-star"]
    for alg in algorithms:
        if alg not in ALGORITHMS:
            raise UsageError(f"unknown algorithm {alg!r}")
    if args.repeat < 1:
        raise UsageError("--repeat must be positive")
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(
        [
            "algorithm",
            "repeat",
            "wall_ms",
            "phase1_ms",
            "phase2_ms",
            "cells_visited",
            "decompositions",
            "x_evaluations",
            "zones",
        ]
    )
    for alg in algorithms:
        for rep in range(args.repeat):
            t0 = time.perf_counter()
            result = _execute(g, spec, alg)
            wall = (time.perf_counter() - t0) * 1000.0
            s = result.stats
            writer.writerow(
                [
                    alg,
                    rep,
                    round(wall, 3),
                    round(s.phase1_ms, 3),
                    round(s.phase2_ms, 3),
                    s.cells_visited,
                    s.prune_counters.get("decompositions", ""),
                    s.x_evaluations,
                    len(result.entries),
                ]
            )
    _write_text(buf.getvalue(), args.output)
    return 0


def cmd_gen(args) -> int:
    try:
        g = generate_synthetic(
            args.vertices, args.edges, args.timestamps, model=args.model, seed=args.seed
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    lines = [
        f"# synthetic model={args.model} vertices={args.vertices} "
        f"edges={args.edges} timestamps={args.timestamps} seed={args.seed}"
    ]
    for u, v, t, n in g.pair_runs:
        lines.extend(repeat(f"{g.label_of(u)} {g.label_of(v)} {t}", n))
    _write_text("\n".join(lines) + "\n", args.output)
    if args.output is not None:
        print(
            f"wrote {g.edge_count} edges over {g.vertex_count} vertices to {args.output}",
            file=sys.stderr,
        )
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (UsageError, ContractViolation) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ParseError, InputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
