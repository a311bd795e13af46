"""Output comparison: the ops whose results differ between this checkout and
another tree of the project.

Run from anywhere::

    python3 tools/compare_outputs.py OTHER_TREE

The ops are every scenario of ``tests/golden`` under each CLI verb in both
formats, and one round of each benchmark workload at seeds 0 and 2001, sized
by ``scenarios.blocks_for(workload, 30)``.  The scenario files are this
checkout's, written once, so both trees read the same bytes.  Each tree runs
every op in one fresh interpreter, as the in-process call
``jacobiflow.cli.main(argv)`` on its own ``src``, with the op's outputs in a
directory of their own.  An op differs when its exit code, its stderr (with
the tree's output directory replaced by ``<out>``) or any output file
differs.  Each such op is printed with what differs, and each differing
output file with how far apart it is: for rows (a CSV, or a JSON output) the
largest absolute difference of a cell and the largest gap
(:func:`~jacobiflow.grassmann.plane_distance`) between the frames of matching
rows, and for a summary (a summary sidecar, or a JSON output) the keys whose
values differ.  The exit status is 1 if any op differs and 0 otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from corpus_coverage import FORMATS, GOLDEN, ROUND_S
from corpus_timings import ROOT

SEEDS = (0, 2001)
RUNNER = (
    "import contextlib, io, json, sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "from jacobiflow import cli\n"
    "results = []\n"
    "for argv in json.load(sys.stdin):\n"
    "    err = io.StringIO()\n"
    "    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):\n"
    "        code = cli.main(argv)\n"
    "    results.append([code, err.getvalue()])\n"
    "json.dump(results, sys.stdout)\n"
)


def golden_ops(scenarios: list[Path]) -> list[tuple[str, list[str], str]]:
    """``(op id, argv without --out, output file name)`` of each scenario
    under every CLI verb in both formats."""
    from jacobiflow import cli

    return [(f"{path.stem}.{verb}.{fmt}", [verb, str(path), "--format", fmt], f"out.{fmt}")
            for path in scenarios for verb in cli.VERBS for fmt in FORMATS]


def round_ops(directory: Path) -> list[tuple[str, list[str], str]]:
    """The ops of one benchmark round per workload and seed, their scenarios
    written under ``directory``."""
    import scenarios

    ops = []
    for workload in scenarios.WORKLOADS:
        for seed in SEEDS:
            where = directory / f"{workload}-seed{seed}"
            for op in scenarios.write_scenarios(workload, seed,
                                                scenarios.blocks_for(workload, ROUND_S), where):
                ops.append((f"{where.name}/{op.id}", [op.verb, str(where / f"{op.scenario}.json")],
                            "out.csv"))
    return ops


def run_tree(tree: Path, ops: list[tuple[str, list[str], str]], out: Path) -> list[dict]:
    """Exit code, normalised stderr and output files of every op, run by the
    package under ``tree/src`` in one fresh interpreter."""
    argvs = [argv + ["--out", str(out / op_id / name)] for op_id, argv, name in ops]
    for op_id, _, _ in ops:
        (out / op_id).mkdir(parents=True)
    proc = subprocess.run([sys.executable, "-c", RUNNER, str(tree / "src")],
                          input=json.dumps(argvs), capture_output=True, text=True, check=True)
    return [{"code": code,
             "stderr": stderr.replace(str(out), "<out>"),
             "files": {p.relative_to(out / op_id).as_posix(): p.read_bytes()
                       for p in sorted((out / op_id).rglob("*")) if p.is_file()}}
            for (op_id, _, _), (code, stderr) in zip(ops, json.loads(proc.stdout))]


def parsed(name: str, data: bytes) -> dict:
    """The ``columns`` and ``rows`` (a cell left empty reads None) and the
    ``summary`` that an output file holds: a CSV its rows, a summary sidecar
    its summary, a JSON output all three; another file nothing."""
    if name.endswith(".summary.json"):
        return {"summary": json.loads(data)}
    if name.endswith(".json"):
        return json.loads(data)
    if name.endswith(".csv"):
        header, *lines = data.decode().splitlines()
        return {"columns": header.split(","),
                "rows": [[float(cell) if cell else None for cell in line.split(",")]
                         for line in lines]}
    return {}


def row_gaps(columns: list[str], mine: list[list], theirs: list[list]) -> str:
    """``"cells D, frames G"``: the largest absolute cell difference of two
    tables of one shape and the largest gap between the frames of their
    matching rows; a cell empty in one table only differs by inf."""
    a, b = np.array(mine, dtype=float), np.array(theirs, dtype=float)
    if a.shape != b.shape:
        return "rows of another shape"
    cells = np.where(np.isnan(a) & np.isnan(b), 0.0, np.abs(a - b))
    text = f"cells {float(np.nan_to_num(cells, nan=np.inf).max(initial=0.0)):.2g}"
    frame = [i for i, column in enumerate(columns) if column.startswith("frame_")]
    if frame and len(a):
        from jacobiflow.grassmann import plane_distance

        dim = 1 + max(int(columns[i].split("_")[1]) for i in frame)
        fa, fb = (x[:, frame].reshape(len(x), dim, -1) for x in (a, b))
        text += f", frames {float(np.max(plane_distance(fa, fb))):.2g}"
    return text


def how_far(name: str, mine: bytes, theirs: bytes) -> str:
    """How far apart two versions of an output file are: the gaps of their
    rows and the summary keys whose values differ, as far as the file holds
    them."""
    a, b = parsed(name, mine), parsed(name, theirs)
    parts = []
    if "rows" in a and "rows" in b:
        parts.append("columns differ" if a["columns"] != b["columns"]
                     else row_gaps(a["columns"], a["rows"], b["rows"]))
    if "summary" in a and "summary" in b:
        keys = sorted(key for key in set(a["summary"]) | set(b["summary"])
                      if a["summary"].get(key) != b["summary"].get(key))
        if keys:
            parts.append(f"summary keys {' '.join(keys)}")
    return f" ({'; '.join(parts)})" if parts else ""


def differences(other: Path, ops: list[tuple[str, list[str], str]], work: Path) -> list[str]:
    """``"op id: what differs"`` for each op whose results differ between
    this checkout and ``other``; a file that both trees wrote carries how far
    apart it is (:func:`how_far`)."""
    mine = run_tree(ROOT, ops, work / "this")
    theirs = run_tree(other, ops, work / "other")
    found = []
    for (op_id, _, _), a, b in zip(ops, mine, theirs):
        what = [key for key in ("code", "stderr") if a[key] != b[key]]
        for name in sorted(set(a["files"]) | set(b["files"])):
            x, y = a["files"].get(name), b["files"].get(name)
            if x != y:
                what.append(f"file {name}" + (how_far(name, x, y) if x and y else ""))
        if what:
            found.append(f"{op_id}: {', '.join(what)}")
    return found


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: compare_outputs.py OTHER_TREE", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        goldens = sorted(p for p in GOLDEN.glob("*.json") if not p.name.endswith(".summary.json"))
        ops = golden_ops(goldens) + round_ops(work / "scenarios")
        found = differences(Path(argv[0]).resolve(), ops, work)
    for line in found:
        print(line)
    print(f"{len(found)} of {len(ops)} ops differ")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
