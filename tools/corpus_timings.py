"""Corpus timings: the best in-process wall time of each corpus op, the cold
import of the CLI and the compile time of the package's source, with the
transport's work per op.

Run from anywhere::

    python3 tools/corpus_timings.py [--repeat 5] [--op regular.trace ...]

Each op is one ``jacobiflow.cli.main([verb, scenario, "--out", file])`` call
on a scenario of ``perfbench/corpus/``, read in place; its outputs go to a
temporary directory.  The cold import is ``import jacobiflow.cli`` in a fresh
interpreter, timed around the import alone.  Where no bytecode is cached (as
under ``PYTHONDONTWRITEBYTECODE``) that import compiles every module, so the
next row is the time ``compile()`` takes over the package's ``.py`` files,
read beforehand.  Every figure is the best of
``--repeat`` runs, in raw wall seconds, not scaled to the host's speed, so
compare figures taken on one host in one sitting.  The import and op rows are
those of the Baseline table of ``ROADMAP.md``.

Beside each op's time come the counts of one more, untimed run: the
transport's batches and evaluated propagators (calls of
``flows._increments`` and the steps they take), the propagators among them
of a dense system, whose stage solve is 4*2n unknowns per column where a
rank-one system's is four pairings, the steps of its frame chains
(``flows._chain``) and the frames it orthonormalises by a QR
(``flows._renormalise``).  Then come the Maslov pass's intervals: those
counted on the chart (``chart_intervals``) and those counted by the Souriau
pass (``souriau_intervals``).  A degeneracy op adds the series orders of its
singular instant, read from the record the op built: the order its normal
frame series is summed at (``frame_order``, N, 0 where no order is
admissible), the orders the frame keeps (``frame_length``, P) and the
length of the blown-up series it summed (``series_order``, 0 for m >= 3,
which sums none).  These counts do not depend on the host, so they show a
change of step control, of counting or of series order without the noise
of the timings.
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
#: the transport's work counted per op, in the order printed
COUNTS = ("batches", "propagators", "dense", "chain_steps", "qrs", "chart_intervals",
          "souriau_intervals")
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


def compile_s(repeat: int) -> float:
    """Best wall time of compiling every source file of the package."""
    sources = [(path.read_text(encoding="utf-8"), str(path))
               for path in sorted((SRC / "jacobiflow").rglob("*.py"))]
    best = float("inf")
    for _ in range(repeat):
        t0 = perf_counter()
        for source, name in sources:
            compile(source, name, "exec")
        best = min(best, perf_counter() - t0)
    return best


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


@contextlib.contextmanager
def counted(flows, maslov, cli):
    """Count the transport's and the Maslov pass's work while the block runs,
    by wrapping the kernel and the pass's helpers, and record the series
    orders of a degeneracy op from what the CLI's local frame and first-jet
    continuation return."""
    counts = dict.fromkeys(COUNTS, 0)
    increments, chain, renormalise = flows._increments, flows._chain, flows._renormalise
    charted, turns = maslov._chart_matrix, maslov._turns
    local_frame, continuation = cli._local_frame, cli.first_jet_continuation

    def evaluated(sys, t, h):
        counts["batches"] += 1
        counts["propagators"] += t.size

        def seen(ts):  # the system's form: a (u, w) pair is rank one
            a = sys(ts)
            counts["dense"] += 0 if isinstance(a, tuple) else t.size
            return a

        return increments(seen, t, h)

    def chained(f, inc, *part):
        counts["chain_steps"] += inc.shape[0]
        return chain(f, inc, *part)

    def orthonormalised(f):
        counts["qrs"] += int((abs(f).max(axis=(-2, -1)) > flows._GROWTH).sum())
        return renormalise(f)

    def nodes(planes, m):  # each pass takes the chart of all its nodes once
        counts["chart_intervals"] += max(len(planes) - 1, 0)
        return charted(planes, m)

    def turned(w, left):  # the intervals the chart does not certify
        counts["chart_intervals"] -= left.size
        counts["souriau_intervals"] += left.size
        return turns(w, left)

    def framed(config):
        frame, order, report, summary = local_frame(config)
        counts.update(frame_order=order or 0, frame_length=len(frame.frame), series_order=0)
        return frame, order, report, summary

    def continued(*args, **kwargs):
        window = continuation(*args, **kwargs)
        counts["series_order"] = window.diagnostics["series_order"]
        return window

    flows._increments, flows._chain, flows._renormalise = evaluated, chained, orthonormalised
    maslov._chart_matrix, maslov._turns = nodes, turned
    cli._local_frame, cli.first_jet_continuation = framed, continued
    try:
        yield counts
    finally:
        flows._increments, flows._chain, flows._renormalise = increments, chain, renormalise
        maslov._chart_matrix, maslov._turns = charted, turns
        cli._local_frame, cli.first_jet_continuation = local_frame, continuation


def op_counts(cli, op: str, out: Path) -> dict[str, int]:
    """The transport's and the Maslov pass's work in one run of a corpus op,
    and the series orders of a degeneracy op."""
    from jacobiflow import flows, maslov

    scenario, verb = op.split(".")
    with counted(flows, maslov, cli) as counts, contextlib.redirect_stderr(io.StringIO()):
        cli.main([verb, str(CORPUS / f"{scenario}.json"), "--out", str(out / f"{op}.csv")])
    return counts


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=5, help="runs per figure (default 5)")
    parser.add_argument("--op", action="append", choices=OPS,
                        help="time only this corpus op (repeatable; default all)")
    args = parser.parse_args(argv)
    rows = [(IMPORT, cold_import_s(args.repeat)), ("compile src/jacobiflow", compile_s(args.repeat))]
    sys.path.insert(0, str(SRC))
    from jacobiflow import cli

    with tempfile.TemporaryDirectory() as out:
        counts = {op: op_counts(cli, op, Path(out)) for op in args.op or OPS}
        rows += [(op, op_s(cli, op, Path(out), args.repeat)) for op in counts]
    width = max(len(name) for name, _ in rows)
    for name, seconds in rows:
        work = "".join(f"  {key} {value}" for key, value in counts.get(name, {}).items())
        print(f"{name:<{width}}  {seconds:.4f} s{work}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
