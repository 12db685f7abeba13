"""Print one digest per command of the CLI byte-identity corpus.

Usage: python3 tools/cli_corpus.py [--src DIR]

DIR is the directory holding the `tkcore` package to run (default: this
checkout's `src`).  Each command runs in-process through `tkcore.cli.main`
and prints as `DIGEST EXIT COMMAND`.  The digest covers the exit code,
stdout with the `phase1_ms` and `phase2_ms` timings zeroed, and stderr.
Run it on two trees and diff the outputs: equal lines mean byte-identical
CLI output.  `tests/cli_corpus.txt` pins the output, and
`tests/test_cli.py` reruns the corpus against it; regenerate it with
`python3 tools/cli_corpus.py > tests/cli_corpus.txt` only for a change
that means to alter CLI output.

The corpus:
- planted-community 400/6000/30, seed 1: every engine and the oracle, k=2
  and 3, eight queries, JSON and CSV (160 commands).  The graph exceeds
  MAX_ORACLE_EDGES, so its oracle rows check the refusal;
- planted-community 60/600/20, seed 1: otcd-star, tcd-star and the
  oracle on the same queries, which the oracle answers (96 commands), and
  `verify` of otcd-star and tcd-star against the oracle (32 commands);
- the same 60/600/20 instance at k=2: `query` and `verify` with
  `--granularity bucket:2`, `verify` with `--granularity rank`, a
  `periodicity` optimize with `--param p=3`, and a `--sigma 1/0` that
  exits 2 (5 commands);
- the same instance at k=2: a `size` optimize with `--param q=3`, which
  `size` does not declare, a `periodicity` optimize with `--param p=nan`,
  and one with `--param p=2 --param p=9`, which names `p` twice; all three
  exit 2 (3 commands);
- the same instance at k=2: `query` and `verify` of a `periodicity`
  optimize with a non-integer `--param`, p=3/2, p=1.5 and p=1e400, which
  the JSON shows as exact text (6 commands).

302 commands in all.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import re
import sys
from pathlib import Path

INSTANCES = ("synthetic:400,6000,30,planted-community", "synthetic:60,600,20,planted-community")
ENGINES = {
    INSTANCES[0]: ("tcd", "otcd", "otcd-star", "tcd-star", "oracle"),
    INSTANCES[1]: ("otcd-star", "tcd-star", "oracle"),
}
QUERIES = (
    (),
    ("--measure", "burstiness", "--mode", "optimize"),
    ("--measure", "engagement", "--mode", "optimize"),
    ("--measure", "frequency", "--mode", "optimize"),
    ("--measure", "size", "--mode", "optimize"),
    ("--measure", "growth_rate", "--mode", "constrain", "--sigma", "1"),
    ("--measure", "engagement", "--mode", "constrain", "--sigma", "3/4"),
    ("--measure", "periodicity", "--mode", "constrain", "--sigma", "1"),
)
TIMINGS = re.compile(r'("phase[12]_ms": )[-0-9.e+]+')


def commands():
    for instance in INSTANCES:
        for algorithm in ENGINES[instance]:
            for k in ("2", "3"):
                for query in QUERIES:
                    for fmt in ("json", "csv"):
                        yield [
                            "query", "--input", instance, "--seed", "1", "--k", k,
                            "--algorithm", algorithm, *query, "--format", fmt,
                        ]
    for algorithm in ("otcd-star", "tcd-star"):
        for k in ("2", "3"):
            for query in QUERIES:
                yield [
                    "verify", "--input", INSTANCES[1], "--seed", "1", "--k", k,
                    "--algorithm", algorithm, *query,
                ]
    small = ("--input", INSTANCES[1], "--seed", "1", "--k", "2")
    yield ["query", *small, "--granularity", "bucket:2"]
    yield ["verify", *small, "--granularity", "bucket:2"]
    yield ["verify", *small, "--granularity", "rank"]
    yield ["query", *small, "--measure", "periodicity", "--param", "p=3", "--mode", "optimize"]
    yield ["query", *small, "--measure", "growth_rate", "--mode", "constrain", "--sigma", "1/0"]
    yield ["query", *small, "--measure", "size", "--param", "q=3", "--mode", "optimize"]
    yield ["query", *small, "--measure", "periodicity", "--param", "p=nan", "--mode", "optimize"]
    yield ["query", *small, "--measure", "periodicity", "--param", "p=2", "--param", "p=9",
           "--mode", "optimize"]
    for p in ("p=3/2", "p=1.5", "p=1e400"):
        for command in ("query", "verify"):
            yield [command, *small, "--measure", "periodicity", "--param", p, "--mode", "optimize"]


def run(main, argv) -> tuple[int, str]:
    """(exit code, digest) of one command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    stdout = TIMINGS.sub(r"\g<1>0", out.getvalue())
    text = f"{code}\0{stdout}\0{err.getvalue()}"
    return code, hashlib.sha256(text.encode()).hexdigest()[:16]


def lines(main):
    """One `DIGEST EXIT COMMAND` line per command, run through `main`."""
    for argv in commands():
        code, digest = run(main, argv)
        yield f"{digest} {code} {' '.join(argv)}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"))
    args = parser.parse_args()
    sys.path.insert(0, args.src)
    from tkcore.cli import main as cli_main

    for line in lines(cli_main):
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
