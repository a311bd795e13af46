"""Corpus accuracy: the worst plane error of each corpus op, and of each
seed-0 portrait variant, against the same op marched at the rtol floor, and
against that march on a refined grid.

Run from anywhere::

    python3 tools/corpus_accuracy.py [--op regular.trace ...]

Each op is run in process, as ``jacobiflow.cli.main([verb, scenario, "--out",
file])``, and again with ``--tol-overrides '{"rtol": R}'``, R being
``flows._RTOL_MIN``, the smallest rtol the transport kernel honours.  Its
first figure is the largest angle, in radians, between a plane the first run
writes and the plane the second writes at the same node: the largest
principal angle for the frames of a trace, the angle between the lines of a
portrait, over the cells both runs write.  Where the node spacing sets the
steps, both runs take the same steps and that figure reads 0.  So the second
figure compares the op with a third run at the floor on its grid refined
4 times (``steps`` -> 4 (steps - 1) + 1 nodes), read at every fourth row; an
op whose refined run transports no plane (no batch of ``flows._increments``)
prints "-" there.  The portrait variants are those of one 30 s round of the
benchmark's ``jet`` workload at seed 0 (``perfbench/scenarios.py``); they run
unless ``--op`` picks corpus ops.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from corpus_timings import CORPUS, OPS, ROOT, SRC, counted

#: seconds of the benchmark round whose portrait variants are measured
ROUND_S = 30.0


def planes(csv: Path, every: int = 1) -> np.ndarray:
    """The ``(K, 2n, k)`` stack of planes one output file writes at every
    ``every``-th row, NaN where a cell is blank.

    A trace writes the canonical frame of each node; a portrait writes the
    line of each start value by one number, u (the line through (1, -u)) or
    v (the line through (-v, t)).
    """
    header = csv.read_text(encoding="utf-8").split("\n", 1)[0].split(",")
    rows = np.atleast_2d(np.genfromtxt(csv, delimiter=",", skip_header=1))[::every]
    frame = [i for i, name in enumerate(header) if name.startswith("frame_")]
    if frame:
        n = round((len(frame) / 2) ** 0.5)
        return rows[:, frame].reshape(-1, 2 * n, n)
    t = np.broadcast_to(rows[:, :1], rows.shape)
    u = [name.startswith("u_") for name in header]
    v = [name.startswith("v_") for name in header]
    lines = [np.stack([np.ones_like(rows[:, u]), -rows[:, u]], axis=-1),
             np.stack([-rows[:, v], t[:, v]], axis=-1)]
    return np.concatenate(lines, axis=1).reshape(-1, 2, 1)


def _angle(a: np.ndarray, b: np.ndarray) -> float:
    """Largest angle between the planes of two stacks, over the nodes both write."""
    from jacobiflow.grassmann import plane_distance

    both = np.isfinite(a).all(axis=(1, 2)) & np.isfinite(b).all(axis=(1, 2))
    gaps = plane_distance(a[both], b[both]) if both.any() else np.zeros(1)
    return float(np.arcsin(min(1.0, float(np.max(gaps)))))


def worst_angles(verb: str, scenario: Path, out: Path) -> tuple[float, float | None]:
    """Largest angles between the planes of one op and of the same op at the
    rtol floor, on its grid and on the grid refined 4 times; None for the
    second where the refined run transports nothing."""
    from jacobiflow import cli, flows, maslov

    raw = json.loads(scenario.read_text(encoding="utf-8"))
    raw["grid"]["steps"] = 4 * (raw["grid"]["steps"] - 1) + 1
    refined = out / "refined.json"
    refined.write_text(json.dumps(raw), encoding="utf-8")
    runs = []
    for path, tol, every in ((scenario, {}, 1), (scenario, {"rtol": flows._RTOL_MIN}, 1),
                             (refined, {"rtol": flows._RTOL_MIN}, 4)):
        csv = out / f"{len(runs)}.csv"
        argv = [verb, str(path), "--out", str(csv), "--tol-overrides", json.dumps(tol)]
        with (counted(flows, maslov, cli) as counts,
              contextlib.redirect_stderr(io.StringIO()) as err):
            code = cli.main(argv)
        if code != 0:
            raise SystemExit(f"{scenario.stem}.{verb} exited {code}: {err.getvalue().strip()}")
        runs.append(planes(csv, every))
    op, floor, fine = runs
    return _angle(op, floor), _angle(op, fine) if counts["batches"] else None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--op", action="append", choices=OPS,
                        help="measure only this corpus op (repeatable; default all, "
                             "and the portrait variants)")
    args = parser.parse_args(argv)
    sys.path[:0] = [str(SRC), str(ROOT / "perfbench")]
    import scenarios

    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        for op in args.op or OPS:
            name, verb = op.split(".")
            rows.append((op, *worst_angles(verb, CORPUS / f"{name}.json", out)))
        if not args.op:
            variants = out / "variants"
            ops = scenarios.write_scenarios("jet", 0, scenarios.blocks_for("jet", ROUND_S),
                                            variants)
            for op in ops:
                if op.verb == "portrait" and op.scenario != "portrait":
                    path = variants / f"{op.scenario}.json"
                    rows.append((op.id, *worst_angles(op.verb, path, out)))
    width = max(len(name) for name, _, _ in rows)
    for name, angle, fine in rows:
        print(f"{name:<{width}}  {angle:.2g} rad  " + ("-" if fine is None else f"{fine:.2g} rad"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
