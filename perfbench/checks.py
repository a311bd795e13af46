"""Output checks for benchmark ops.

Every op ends in one of two ways: an exit code with the files ``emit``
writes (``out.csv``, ``out.csv.columns``, ``out.csv.summary.json``), or an
exit code with one JSON error object on stderr.  :func:`check_op` compares
that outcome with the op's expectation, checks invariants that hold for any
input, and, when a reference record exists, compares with it.  An op
whose list of problems is empty met its expectation.

The geometry here is written against numpy alone so that a defect in the
package cannot hide itself by also breaking its own checker.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

#: gap distance allowed between an output plane and its reference plane
PLANE_TOL = 1e-7
#: relative tolerance for other floats compared with a reference
FLOAT_RTOL = 1e-6
#: scaled sigma-Gram residual allowed for an emitted frame
ISO_TOL = 1e-8
#: verbs whose output rows are planes sampled along a curve
CURVE_VERBS = ("trace", "maslov", "bangbang")
#: entries of the CLI's default ``u0`` and ``v0`` portrait start lists
PORTRAIT_DEFAULT_STARTS = 7


def read_output(out: Path) -> dict:
    """Parse the files ``emit`` wrote for ``out``; cells are floats or None."""
    lines = out.read_text(encoding="utf-8").split("\n")
    if lines[-1] != "":
        raise ValueError("csv does not end with a newline")
    columns = lines[0].split(",")
    rows = []
    for line in lines[1:-1]:
        cells = line.split(",")
        if len(cells) != len(columns):
            raise ValueError(f"row has {len(cells)} cells, header has {len(columns)}")
        rows.append([None if c == "" else float(c) for c in cells])
    manifest = out.with_name(out.name + ".columns").read_text(encoding="utf-8")
    if manifest != "\n".join(columns) + "\n":
        raise ValueError("columns sidecar does not match the csv header")
    summary = json.loads(out.with_name(out.name + ".summary.json").read_text(encoding="utf-8"))
    return {"columns": columns, "rows": rows, "summary": summary}


def trace_columns(n: int) -> list[str]:
    cols = ["time"]
    cols += [f"frame_{i}_{j}" for i in range(2 * n) for j in range(n)]
    cols += [f"chart_{i}_{j}" for i in range(n) for j in range(n)]
    return cols + ["maslov_partial", "event"]


def frames(output: dict, n: int) -> list[np.ndarray]:
    """The (2n, n) frame of every row of a curve output."""
    k = 2 * n * n
    return [np.array(row[1 : 1 + k], dtype=float).reshape(2 * n, n) for row in output["rows"]]


def isotropy(f: np.ndarray) -> float:
    """max |sigma(f_i, f_j)| over column pairs, scaled by the column norms."""
    n = f.shape[0] // 2
    gram = f[:n].T @ f[n:] - f[n:].T @ f[:n]
    norms = np.linalg.norm(f, axis=0)
    return float(np.max(np.abs(gram) / np.outer(norms, norms)))


def plane_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Gap distance: spectral norm of the difference of orthogonal projectors."""
    qa = np.linalg.qr(np.asarray(a, dtype=float))[0]
    qb = np.linalg.qr(np.asarray(b, dtype=float))[0]
    return float(np.linalg.norm(qa @ qa.T - qb @ qb.T, 2))


def _frame_problems(f: np.ndarray, where: str) -> list[str]:
    if not np.all(np.isfinite(f)):
        return [f"{where}: frame is not finite"]
    if np.linalg.matrix_rank(f) < f.shape[1]:
        return [f"{where}: frame is rank deficient"]
    r = isotropy(f)
    return [f"{where}: frame is not Lagrangian (residual {r:.2e})"] if r > ISO_TOL else []


def invariant_problems(verb: str, scenario: dict, output: dict) -> list[str]:
    """Checks that hold on any input, whatever the seed."""
    n = scenario["n"]
    rows, summary = output["rows"], output["summary"]
    problems = []
    if verb == "portrait":
        data = scenario["data"]
        width = 1 + sum(len(data.get(key, range(PORTRAIT_DEFAULT_STARTS))) for key in ("u0", "v0"))
        if len(output["columns"]) != width:
            problems.append(f"portrait has {len(output['columns'])} columns, expected {width}")
    elif output["columns"] != trace_columns(n):
        problems.append("columns differ from the trace layout")
        return problems

    if verb in ("classify", "jump"):
        expected_rows = 0
    elif verb == "bangbang":
        expected_rows = len(scenario["data"]["x_list"]) + 1
    else:
        expected_rows = scenario["grid"]["steps"]
    if len(rows) != expected_rows:
        problems.append(f"{len(rows)} rows, expected {expected_rows}")

    if verb in CURVE_VERBS:
        for i, f in enumerate(frames(output, n)):
            problems += _frame_problems(f, f"row {i}")
        partial = [row[-2] for row in rows]
        if partial and partial[0] != 0.0:
            problems.append("maslov partial sums do not start at 0")
        if any(p is None or (math.isfinite(p) and p != round(p)) for p in partial):
            problems.append("maslov partial sums are not whole numbers")
            return problems
    for k, event in enumerate(summary.get("events", [])):
        for key in ("pre_plane", "post_plane"):
            problems += _frame_problems(np.array(event[key], dtype=float), f"event {k} {key}")
    if verb == "jump" and len(summary.get("events", [])) != 1:
        problems.append("jump does not report exactly one event")
    if verb == "maslov":
        index = summary.get("maslov_index")
        if not isinstance(index, int):
            problems.append("maslov summary carries no integer index")
        # With a gap (nan) in the partial sums the last one is not the total.
        elif rows and all(math.isfinite(row[-2]) for row in rows) and index != rows[-1][-2]:
            problems.append(f"maslov index {index} != last trace partial sum {rows[-1][-2]}")
    return problems


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= FLOAT_RTOL * max(1.0, abs(a), abs(b))


def _same_number(a, b) -> bool:
    """Exact match for Maslov sums and event flags; nan equals nan."""
    if a is None or b is None:
        return a is b
    return a == b or (math.isnan(a) and math.isnan(b))


def _summary_problems(ref, got, path: str = "summary") -> list[str]:
    if isinstance(ref, dict):
        if not isinstance(got, dict) or set(ref) != set(got):
            return [f"{path}: keys differ from the reference"]
        out = []
        for key in ref:
            if key in ("pre_plane", "post_plane"):
                d = plane_distance(np.array(ref[key]), np.array(got[key]))
                if d > PLANE_TOL:
                    out.append(f"{path}.{key}: plane distance {d:.2e} from the reference")
            else:
                out += _summary_problems(ref[key], got[key], f"{path}.{key}")
        return out
    if isinstance(ref, list):
        if not isinstance(got, list) or len(ref) != len(got):
            return [f"{path}: length differs from the reference"]
        return [p for i, (r, g) in enumerate(zip(ref, got))
                for p in _summary_problems(r, g, f"{path}[{i}]")]
    if isinstance(ref, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        return [] if _close(ref, float(got)) else [f"{path}: {got!r} != reference {ref!r}"]
    if type(ref) is not type(got) or ref != got:
        return [f"{path}: {got!r} != reference {ref!r}"]
    return []


def reference_problems(verb: str, n: int, ref: dict, output: dict) -> list[str]:
    """Compare an output with the one captured when the benchmark was written."""
    if ref["columns"] != output["columns"] or len(ref["rows"]) != len(output["rows"]):
        return ["layout differs from the reference"]
    problems = []
    for i, (r, g) in enumerate(zip(ref["rows"], output["rows"])):
        if verb == "portrait":
            if any((a is None) != (b is None) or (a is not None and not _close(a, b))
                   for a, b in zip(r, g)):
                problems.append(f"row {i} differs from the reference")
            continue
        if not _close(r[0], g[0]):
            problems.append(f"row {i}: time differs from the reference")
        d = plane_distance(frames({"rows": [r]}, n)[0], frames({"rows": [g]}, n)[0])
        if d > PLANE_TOL:
            problems.append(f"row {i}: plane distance {d:.2e} from the reference")
        if not (_same_number(r[-2], g[-2]) and _same_number(r[-1], g[-1])):
            problems.append(f"row {i}: maslov partial sum or event differs from the reference")
    return problems + _summary_problems(ref["summary"], output["summary"])


def reference_met(op, reference: dict | None) -> bool:
    """Whether a reference exists and ended with the op's expected outcome."""
    return reference is not None and (reference["code"], reference["error"]) == (
        op.expect_code, op.expect_error)


def is_wrong(op, problems: list[str], reference: dict | None) -> bool:
    """Whether an op's outcome is wrong rather than a known failure.

    Any problem with the output is wrong.  A missed exit code or error class
    is wrong when the op's reference met the expectation: the op used to end
    as expected and no longer does.  Without such a reference (a known
    defect, or a variant of a seed that was not captured) it only counts as
    failed.
    """
    if any(not p.startswith("exit ") for p in problems):
        return True
    return bool(problems) and reference_met(op, reference)


def check_op(op, code: int, stderr: str, out: Path, scenario: dict,
             reference: dict | None) -> tuple[str | None, list[str], dict | None]:
    """Error class, problems and parsed output of one finished op.

    An op with no problems met its expectation.
    """
    error = None
    if code != 0:
        try:
            error = json.loads(stderr.strip().splitlines()[-1])["error"]
        except (IndexError, KeyError, TypeError, json.JSONDecodeError):
            error = "unparsed stderr"
    problems = []
    if (code, error) != (op.expect_code, op.expect_error):
        got = " ".join(str(x) for x in (code, error) if x is not None)
        want = " ".join(str(x) for x in (op.expect_code, op.expect_error) if x is not None)
        problems.append(f"exit {got}, expected {want}")
    # A reference that missed the expectation records a known defect; the
    # expectation alone judges the exit code then.
    if not reference_met(op, reference):
        reference = None
    if code != 0:
        return error, problems, None
    try:
        output = read_output(out)
    except (OSError, ValueError) as exc:
        return error, problems + [f"unreadable output: {exc}"], None
    problems += invariant_problems(op.verb, scenario, output)
    if reference is not None and reference["code"] == 0:
        problems += reference_problems(op.verb, scenario["n"], reference["output"], output)
    return error, problems, output
