"""Corpus accuracy: the worst plane error of each corpus op, and of each
seed-0 portrait variant, against the same op marched at the rtol floor.

Run from anywhere::

    python3 tools/corpus_accuracy.py [--op regular.trace ...]

Each op is run twice in process, as ``jacobiflow.cli.main([verb, scenario,
"--out", file])`` and again with ``--tol-overrides '{"rtol": R}'``, R being
``flows._RTOL_MIN``, the smallest rtol the transport kernel honours.  Its
figure is the largest angle, in radians, between a plane the first run
writes and the plane the second writes at the same node: the largest
principal angle for the frames of a trace, the angle between the lines of a
portrait, over the cells both runs write.  The portrait variants are those
of one 30 s round of the benchmark's ``jet`` workload at seed 0
(``perfbench/scenarios.py``); they run unless ``--op`` picks corpus ops.
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

from corpus_timings import CORPUS, OPS, ROOT, SRC

#: seconds of the benchmark round whose portrait variants are measured
ROUND_S = 30.0


def planes(csv: Path) -> np.ndarray:
    """The ``(K, 2n, k)`` stack of planes one output file writes, NaN where a cell is blank.

    A trace writes the canonical frame of each node; a portrait writes the
    line of each start value by one number, u (the line through (1, -u)) or
    v (the line through (-v, t)).
    """
    header = csv.read_text(encoding="utf-8").split("\n", 1)[0].split(",")
    rows = np.atleast_2d(np.genfromtxt(csv, delimiter=",", skip_header=1))
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


def worst_angle(verb: str, scenario: Path, out: Path) -> float:
    """Largest angle between the planes of one op and of the same op at the rtol floor."""
    from jacobiflow import cli, flows
    from jacobiflow.grassmann import plane_distance

    runs = []
    for tol in ({}, {"rtol": flows._RTOL_MIN}):
        csv = out / f"{len(runs)}.csv"
        argv = [verb, str(scenario), "--out", str(csv), "--tol-overrides", json.dumps(tol)]
        with contextlib.redirect_stderr(io.StringIO()) as err:
            code = cli.main(argv)
        if code != 0:
            raise SystemExit(f"{scenario.stem}.{verb} exited {code}: {err.getvalue().strip()}")
        runs.append(planes(csv))
    a, b = runs
    both = np.isfinite(a).all(axis=(1, 2)) & np.isfinite(b).all(axis=(1, 2))
    gaps = plane_distance(a[both], b[both]) if both.any() else np.zeros(1)
    return float(np.arcsin(min(1.0, float(np.max(gaps)))))


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
            rows.append((op, worst_angle(verb, CORPUS / f"{name}.json", out)))
        if not args.op:
            variants = out / "variants"
            ops = scenarios.write_scenarios("jet", 0, scenarios.blocks_for("jet", ROUND_S),
                                            variants)
            for op in ops:
                if op.verb == "portrait" and op.scenario != "portrait":
                    path = variants / f"{op.scenario}.json"
                    rows.append((op.id, worst_angle(op.verb, path, out)))
    width = max(len(name) for name, _ in rows)
    for name, angle in rows:
        print(f"{name:<{width}}  {angle:.2g} rad")
    return 0


if __name__ == "__main__":
    sys.exit(main())
