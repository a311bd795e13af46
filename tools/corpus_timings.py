"""Corpus timings: the best in-process wall time of each corpus op, and the
cold import of the CLI.

Run from anywhere::

    python3 tools/corpus_timings.py [--repeat 5] [--op regular.trace ...]

Each op is one ``jacobiflow.cli.main([verb, scenario, "--out", file])`` call
on a scenario of ``perfbench/corpus/``, read in place; its outputs go to a
temporary directory.  The cold import is ``import jacobiflow.cli`` in a fresh
interpreter, timed around the import alone.  Every figure is the best of
``--repeat`` runs, in raw wall seconds, not scaled to the host's speed, so
compare figures taken on one host in one sitting.  The rows are those of the
Baseline table of ``ROADMAP.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
CORPUS = ROOT / "perfbench" / "corpus"
#: corpus ops as ``scenario.verb``, in the order of the Baseline table
OPS = ("regular.trace", "regular.maslov", "order2.trace", "degen_m1.trace",
       "degen_m2.trace", "degen_m3.trace", "bangbang.bangbang", "portrait.portrait")
IMPORT = "import jacobiflow.cli"
COLD_IMPORT = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t0 = time.perf_counter()\n"
    "import jacobiflow.cli\n"
    "print(time.perf_counter() - t0)\n"
)


def cold_import_s(repeat: int) -> float:
    """Best wall time of ``import jacobiflow.cli`` over fresh interpreters."""
    return min(float(subprocess.run([sys.executable, "-c", COLD_IMPORT, str(SRC)], check=True,
                                    capture_output=True, text=True).stdout)
               for _ in range(repeat))


def op_s(cli, op: str, out: Path, repeat: int) -> float:
    """Best wall time of one corpus op; a call that does not exit 0 is an error."""
    scenario, verb = op.split(".")
    argv = [verb, str(CORPUS / f"{scenario}.json"), "--out", str(out / f"{op}.csv")]
    best = float("inf")
    for _ in range(repeat):
        with contextlib.redirect_stderr(io.StringIO()) as err:
            t0 = perf_counter()
            code = cli.main(argv)
            best = min(best, perf_counter() - t0)
        if code != 0:
            raise SystemExit(f"{op} exited {code}: {err.getvalue().strip()}")
    return best


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=5, help="runs per figure (default 5)")
    parser.add_argument("--op", action="append", choices=OPS,
                        help="time only this corpus op (repeatable; default all)")
    args = parser.parse_args(argv)
    rows = [(IMPORT, cold_import_s(args.repeat))]
    sys.path.insert(0, str(SRC))
    from jacobiflow import cli

    with tempfile.TemporaryDirectory() as out:
        rows += [(op, op_s(cli, op, Path(out), args.repeat)) for op in args.op or OPS]
    width = max(len(name) for name, _ in rows)
    for name, seconds in rows:
        print(f"{name:<{width}}  {seconds:.4f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
