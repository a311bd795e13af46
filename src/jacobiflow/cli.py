"""Scenario-driven command line front end.

A scenario is a single JSON object::

    {
      "n": 2,
      "mode": "regular" | "singular_order_m" | "infinite" | "bangbang"
              | "legendre_degeneracy" | "portrait",
      "data": {...},                     # shape depends on the mode, see below
      "initial_plane": [[...], ...],     # 2n x n, column-spanned plane
      "grid": {"t0": 0.0, "t1": 1.0, "steps": 200},
      "tolerances": {"rtol": 1e-12},     # optional overrides
      "seed": 0
    }

``data`` holds piecewise polynomial coefficients
(``{"breakpoints": [...], "b": [[c0, c1, ...], ...], "x": [[[...], ...], ...]}``,
one ``b`` row and one ``(2n) x (deg+1)`` coefficient block per interval), a
bang-bang list ``{"x_list": [[...2n...], ...]}``, or a portrait model
``{"c": 2.0, "u0": [...], "v0": [...]}``.  Unknown keys are rejected with
the offending field path.  ``seed`` (default 0) is a label: it is echoed in
the summary and drives nothing, since every pipeline is deterministic.

Verbs: ``classify``, ``jump``, ``trace``, ``maslov``, ``bangbang``,
``portrait``.  Exit codes: 0 ok, 2 configuration, 3 mathematical failure,
4 i/o failure; every failure prints one structured JSON object on stderr.
Outputs are byte-stable: floats carry 17 significant digits and lines end
with a bare newline.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .engine import (
    D_MAX,
    STEPS_MAX,
    JumpEvent,
    PiecewiseAnalytic,
    bang_bang_sequence,
    infinite_order_curve,
    legendre_sequence,
    singular_jacobi_curve,
)
from .errors import ConfigError, JacobiflowError, MathError, NondegeneracyError, RadiusError
from .flows import _integrate, flow_plane  # flow_plane: bound here for tracers
from .grassmann import (
    GrassmannCurve,
    _chart_matrix,
    _sigma_pi_chart,
    canonicalize,
    plane_distance,
    validate_lagrangian,
    vertical_plane,
)
from .maslov import _SpectralFlow, _spectral_flow
from .series import meval
from .singular.classify import classify_frame, kneser_classify
from .singular.firstjet import _tail_within, first_jet_case, first_jet_continuation
from .singular.frame import NormalFormCoefficients, build_normal_frame
from .singular.jump import epsilon_family_oracle, jump_operator
from .symplectic import symplectic_inverse

__all__ = ["ScenarioConfig", "TraceOutput", "parse_scenario", "run", "emit", "main"]

MODES = (
    "regular",
    "singular_order_m",
    "infinite",
    "bangbang",
    "legendre_degeneracy",
    "portrait",
)
VERBS = ("classify", "jump", "trace", "maslov", "bangbang", "portrait")
FORMATS = ("csv", "json")
DEFAULT_TOLERANCES = {
    "rtol": 1e-12,
    "tol_thresh": 1e-6,
    "nterms": 40,
    "eps_family": (1e-2, 1e-3, 1e-4, 1e-5, 1e-6),
}
DEFAULT_U0 = (-3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0)
DEFAULT_V0 = (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0)
PORTRAIT_MASK = 1e6
EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_MATH = 3
EXIT_IO = 4


@dataclass
class ScenarioConfig:
    """Validated scenario with defaults applied.

    ``seed`` is a label echoed in the summary; no computation reads it.
    """

    n: int
    mode: str
    data: dict
    initial_plane: np.ndarray | None
    grid: np.ndarray
    tolerances: dict
    seed: int


@dataclass
class TraceOutput:
    """Columnar trace rows plus a JSON-ready summary."""

    columns: list[str]
    rows: list[list]
    summary: dict
    flow: _SpectralFlow | None = field(default=None, repr=False)


# ---------------------------------------------------------------------------
# scenario parsing
# ---------------------------------------------------------------------------


def _need(obj: dict, key: str, path: str):
    if key not in obj:
        raise ConfigError(f"{path}{key}: required field is missing")
    return obj[key]


def _check_keys(obj: dict, allowed: set[str], path: str) -> None:
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"{path}{key}: unknown field")


def _as_float(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number")
    value = float(value)
    if not math.isfinite(value):
        raise ConfigError(f"{path}: must be finite")
    return value


def _as_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer")
    return value


def _float_list(value, path: str) -> list[float]:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{path}: expected a nonempty array of numbers")
    return [_as_float(v, f"{path}[{i}]") for i, v in enumerate(value)]


def _parse_piecewise(data: dict, n: int, path: str = "data.") -> PiecewiseAnalytic:
    _check_keys(data, {"breakpoints", "b", "x"}, path)
    bps = _float_list(_need(data, "breakpoints", path), path + "breakpoints")
    if len(bps) < 2 or any(b2 <= b1 for b1, b2 in zip(bps, bps[1:])):
        raise ConfigError(f"{path}breakpoints: need a strictly increasing list of length >= 2")
    braw = _need(data, "b", path)
    xraw = _need(data, "x", path)
    if not isinstance(braw, list) or len(braw) != len(bps) - 1:
        raise ConfigError(f"{path}b: need one coefficient row per interval")
    if not isinstance(xraw, list) or len(xraw) != len(bps) - 1:
        raise ConfigError(f"{path}x: need one coefficient block per interval")
    b_pieces = []
    for i, row in enumerate(braw):
        coeffs = _float_list(row, f"{path}b[{i}]")
        if len(coeffs) > D_MAX + 1:
            raise ConfigError(f"{path}b[{i}]: series degree exceeds the cap {D_MAX}")
        b_pieces.append(np.array(coeffs))
    x_pieces = []
    for i, block in enumerate(xraw):
        if not isinstance(block, list) or len(block) != 2 * n:
            raise ConfigError(f"{path}x[{i}]: need 2n = {2 * n} component rows")
        rows = [_float_list(row, f"{path}x[{i}][{j}]") for j, row in enumerate(block)]
        width = max(len(r) for r in rows)
        if width > D_MAX + 1:
            raise ConfigError(f"{path}x[{i}]: series degree exceeds the cap {D_MAX}")
        mat = np.zeros((2 * n, width))
        for j, r in enumerate(rows):
            mat[j, : len(r)] = r
        x_pieces.append(mat)
    return PiecewiseAnalytic(breakpoints=np.array(bps), b_pieces=b_pieces, x_pieces=x_pieces)


def _parse_plane(raw, n: int, path: str = "initial_plane") -> np.ndarray:
    if not isinstance(raw, list) or len(raw) != 2 * n:
        raise ConfigError(f"{path}: expected a 2n x n array with 2n = {2 * n} rows")
    rows = []
    for i, row in enumerate(raw):
        vals = _float_list(row, f"{path}[{i}]")
        if len(vals) != n:
            raise ConfigError(f"{path}[{i}]: expected {n} columns")
        rows.append(vals)
    plane = np.array(rows)
    if np.linalg.matrix_rank(plane) < n:
        raise ConfigError(f"{path}: columns must be linearly independent")
    try:
        validate_lagrangian(plane)
    except NondegeneracyError as exc:
        raise ConfigError(f"{path}: columns must span a Lagrangian plane ({exc})") from exc
    return plane


def _merge_tolerances(base: dict, raw) -> dict:
    """Validate tolerance overrides ``raw`` and return ``base`` updated by them.

    The one validator for scenario ``tolerances`` and ``--tol-overrides``.
    """
    if not isinstance(raw, dict):
        raise ConfigError("tolerances: expected an object")
    _check_keys(raw, set(DEFAULT_TOLERANCES), "tolerances.")
    tolerances = dict(base)
    for key, value in raw.items():
        if key == "nterms":
            tolerances[key] = _as_int(value, f"tolerances.{key}")
        elif key == "eps_family":
            eps = _float_list(value, "tolerances.eps_family")
            if any(e <= 0 for e in eps):
                raise ConfigError("tolerances.eps_family: entries must be positive")
            tolerances[key] = tuple(eps)
        else:
            value = _as_float(value, f"tolerances.{key}")
            if value <= 0:
                raise ConfigError(f"tolerances.{key}: must be positive")
            tolerances[key] = value
    if tolerances["nterms"] < 4 or tolerances["nterms"] > D_MAX:
        raise ConfigError(f"tolerances.nterms: must lie in [4, {D_MAX}]")
    return tolerances


def parse_scenario(path: str | Path) -> ScenarioConfig:
    """Load and validate one scenario file, applying defaults."""

    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"scenario: file not found: {path}")
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"scenario: invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("scenario: top level must be a JSON object")
    _check_keys(raw, {"n", "mode", "data", "initial_plane", "grid", "tolerances", "seed"}, "")

    n = _as_int(_need(raw, "n", ""), "n")
    if n < 1:
        raise ConfigError("n: must be a positive integer")
    mode = _need(raw, "mode", "")
    if mode not in MODES:
        raise ConfigError(f"mode: must be one of {', '.join(MODES)}")

    grid_raw = _need(raw, "grid", "")
    if not isinstance(grid_raw, dict):
        raise ConfigError("grid: expected an object with t0, t1, steps")
    _check_keys(grid_raw, {"t0", "t1", "steps"}, "grid.")
    t0 = _as_float(_need(grid_raw, "t0", "grid."), "grid.t0")
    t1 = _as_float(_need(grid_raw, "t1", "grid."), "grid.t1")
    steps = _as_int(_need(grid_raw, "steps", "grid."), "grid.steps")
    if steps < 1:
        raise ConfigError("grid.steps: must be >= 1")
    if steps > STEPS_MAX:
        raise ConfigError(f"grid.steps: must not exceed {STEPS_MAX}")
    if steps > 1 and t1 <= t0:
        raise ConfigError("grid.t1: must exceed grid.t0")
    if not math.isfinite(t1 - t0):
        raise ConfigError("grid.t1: the width t1 - t0 overflows")
    grid = np.linspace(t0, t1, steps)

    tolerances = _merge_tolerances(DEFAULT_TOLERANCES, raw.get("tolerances", {}))

    seed = _as_int(raw.get("seed", 0), "seed")

    data_raw = _need(raw, "data", "")
    if not isinstance(data_raw, dict):
        raise ConfigError("data: expected an object")

    plane = None
    if mode == "portrait":
        if "initial_plane" in raw:
            raise ConfigError("initial_plane: not used in portrait mode")
        if n != 1:
            raise ConfigError("n: portrait mode is one-dimensional")
        _check_keys(data_raw, {"c", "u0", "v0"}, "data.")
        data = {
            "c": _as_float(_need(data_raw, "c", "data."), "data.c"),
            "u0": _float_list(data_raw["u0"], "data.u0") if "u0" in data_raw else list(DEFAULT_U0),
            "v0": _float_list(data_raw["v0"], "data.v0") if "v0" in data_raw else list(DEFAULT_V0),
        }
        if grid[0] <= 0.0:
            raise ConfigError("grid.t0: portrait sampling must start after zero")
    elif mode == "bangbang":
        _check_keys(data_raw, {"x_list"}, "data.")
        xl = _need(data_raw, "x_list", "data.")
        if not isinstance(xl, list) or not xl:
            raise ConfigError("data.x_list: expected a nonempty array of vectors")
        vectors = []
        for i, vec in enumerate(xl):
            vals = _float_list(vec, f"data.x_list[{i}]")
            if len(vals) != 2 * n:
                raise ConfigError(f"data.x_list[{i}]: expected a vector of length 2n = {2 * n}")
            vectors.append(np.array(vals))
        data = {"x_list": vectors}
        plane = _parse_plane(_need(raw, "initial_plane", ""), n)
    else:
        data = {"piecewise": _parse_piecewise(data_raw, n)}
        plane = _parse_plane(_need(raw, "initial_plane", ""), n)
        bps = data["piecewise"].breakpoints
        if mode == "legendre_degeneracy":
            if not (bps[0] <= 0.0 < bps[-1]):
                raise ConfigError("data.breakpoints: the marked instant 0 must lie in the support")
            if grid[0] <= 0.0:
                raise ConfigError("grid.t0: continuation must start after the marked instant")
            # the continuation reads only the piece of the data right of 0
            end = float(bps[np.searchsorted(bps, 0.0, side="right")])
            for key, t in (("t0", t0), ("t1", t1)):
                if t > end:
                    raise ConfigError(
                        f"grid.{key}: {t} lies past {end}, the end of the data piece at 0")
        else:
            if steps < 2:
                raise ConfigError(f"grid.steps: mode {mode} traces an interval and needs >= 2")
            for key, t in (("t0", t0), ("t1", t1)):
                if not bps[0] <= t <= bps[-1]:
                    raise ConfigError(
                        f"grid.{key}: {t} lies outside data.breakpoints [{bps[0]}, {bps[-1]}]")

    return ScenarioConfig(
        n=n, mode=mode, data=data, initial_plane=plane,
        grid=grid, tolerances=tolerances, seed=seed,
    )


# ---------------------------------------------------------------------------
# pipeline execution
# ---------------------------------------------------------------------------


def _trace_columns(n: int) -> list[str]:
    cols = ["time"]
    cols += [f"frame_{i}_{j}" for i in range(2 * n) for j in range(n)]
    cols += [f"chart_{i}_{j}" for i in range(n) for j in range(n)]
    cols += ["maslov_partial", "event"]
    return cols


def _trace_rows(curve: GrassmannCurve, jumps: list[JumpEvent],
                n: int) -> tuple[list[list], _SpectralFlow]:
    # the Maslov pass over Pi is returned so that the maslov verb counts on
    # it too; it validates every node of the one stack of planes, so the
    # chart columns (chart (Sigma, Pi), prepared once per n) solve on it as it is
    planes = np.stack(curve.planes)
    flow = _spectral_flow(planes, vertical_plane(n))
    partial = flow.partial_sums()
    charts = _chart_matrix(planes, _sigma_pi_chart(n)).reshape(len(planes), -1)
    off = np.isnan(charts).all(axis=1)
    # jump rows: within 1e-9 max(1, |t_jump|) of a jump time; only the two around a row can be
    times = np.asarray(curve.times, dtype=float)
    jt = np.sort([float(j.time) for j in jumps] + [np.nan])  # NaN sorts last, never matches
    right = np.searchsorted(jt, times)
    near = jt[[np.maximum(right - 1, 0), right]]
    hits = np.any(np.abs(times - near) <= 1e-9 * np.maximum(1.0, np.abs(near)), axis=0)
    rows = []
    for t, frame, s, skip, psum, hit in zip(
            times.tolist(), planes.reshape(len(planes), -1).tolist(), charts.tolist(),
            off.tolist(), partial, hits.tolist()):
        rows.append([t, *frame, *([None] * (n * n) if skip else s), float(psum), 1 if hit else 0])
    return rows, flow


def _event_summaries(jumps: list[JumpEvent]) -> list[dict]:
    out = []
    for j in sorted(jumps, key=lambda e: e.time):
        out.append(
            {
                "time": float(j.time),
                "pre_plane": np.asarray(j.pre_plane).tolist(),
                "post_plane": np.asarray(j.post_plane).tolist(),
                "inserted": np.asarray(j.inserted).tolist(),
            }
        )
    return out


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return _jsonable(value.tolist())
    if isinstance(value, (np.floating, float)):
        value = float(value)
        return value if math.isfinite(value) else None
    if isinstance(value, (np.integer,)):
        return int(value)
    return value


def _run_interval_mode(config: ScenarioConfig) -> TraceOutput:
    data = config.data["piecewise"]
    grid = config.grid
    interval = (float(grid[0]), float(grid[-1]))
    seq = legendre_sequence(data, interval)
    if config.mode == "regular" and seq.first_nonzero != 0:
        raise ConfigError("mode: weight is degenerate on the window; not a regular scenario")
    if config.mode == "singular_order_m" and seq.first_nonzero == 0:
        raise ConfigError("mode: weight is nondegenerate on the window; use mode regular")
    if config.mode == "infinite":
        if seq.first_nonzero is not None:
            raise ConfigError("mode: sequence has a nonzero entry; the order is finite")
        trace = infinite_order_curve(data, config.initial_plane, interval)
    else:
        trace = singular_jacobi_curve(data, config.initial_plane, interval, grid,
                                      rtol=config.tolerances["rtol"])
    summary = {
        "mode": config.mode,
        "n": config.n,
        "seed": config.seed,
        "order_m": seq.first_nonzero,
        "events": _event_summaries(trace.jumps),
        "diagnostics": _jsonable(trace.diagnostics),
    }
    rows, flow = _trace_rows(trace.curve, trace.jumps, config.n)
    return TraceOutput(_trace_columns(config.n), rows, summary, flow)


def _run_bangbang(config: ScenarioConfig) -> TraceOutput:
    x_list = config.data["x_list"]
    planes = bang_bang_sequence(config.initial_plane, x_list)
    times = np.arange(len(planes), dtype=float)
    moved = plane_distance(np.stack(planes[:-1]), np.stack(planes[1:])) > 1e-10
    jumps = [JumpEvent(time=float(i + 1), pre_plane=planes[i], post_plane=planes[i + 1],
                       inserted=x_list[i]) for i in np.flatnonzero(moved).tolist()]
    curve = GrassmannCurve(times=times, planes=planes)
    summary = {
        "mode": config.mode,
        "n": config.n,
        "seed": config.seed,
        "switches": len(x_list),
        "event_count": len(jumps),
        "events": _event_summaries(jumps),
    }
    rows, flow = _trace_rows(curve, jumps, config.n)
    return TraceOutput(_trace_columns(config.n), rows, summary, flow)


def _degeneracy_stage(config: ScenarioConfig):
    """Shared head of the degenerate-instant pipeline: sequence, frame, report."""

    data = config.data["piecewise"]
    bps = data.breakpoints
    seq = legendre_sequence(data, (float(bps[0]), float(bps[-1])))
    if seq.first_nonzero != 0:
        raise ConfigError(
            "data.b: weight is identically degenerate; this mode treats an isolated zero"
        )
    frame = build_normal_frame(data, 0.0, nterms=config.tolerances["nterms"])
    if frame.m == 0:
        raise ConfigError("data.b: weight does not vanish at the marked instant")
    report = classify_frame(frame, tol_thresh=config.tolerances["tol_thresh"])
    return data, frame, report


def _classification_summary(config: ScenarioConfig, frame, report) -> dict:
    return {
        "mode": config.mode,
        "n": config.n,
        "seed": config.seed,
        **report.to_dict(),
        "symplectic_residual": frame.symplectic_residual,
    }


def _run_degeneracy(config: ScenarioConfig, verb: str) -> TraceOutput:
    data, frame, report = _degeneracy_stage(config)
    columns = _trace_columns(config.n)
    summary = _classification_summary(config, frame, report)
    if verb == "classify":
        summary["events"] = []
        return TraceOutput(columns, [], summary)

    if frame.k != config.n:
        raise ConfigError(
            "n: continuation needs the degenerate block to fill the space "
            f"(block size {frame.k}, n = {config.n})"
        )
    x0 = data.x(0.0)
    jump = jump_operator(config.initial_plane, x0, report, time=0.0)
    summary["events"] = _event_summaries([jump])
    if verb == "jump":
        return TraceOutput(columns, [], summary)

    grid = config.grid
    rtol = config.tolerances["rtol"]
    l0_nf = canonicalize(symplectic_inverse(frame.frame_at(0.0)) @ config.initial_plane)
    # the local theory, in normal-form coordinates, up to the handover time t_h:
    # the first-jet series window for m <= 2, the epsilon family to grid.t0 for m >= 3
    if frame.m <= 2:
        case = first_jet_case(l0_nf)
        window = first_jet_continuation(frame.coeffs, case, grid, nterms=config.tolerances["nterms"])
        times, nf_planes = window.curve.times, window.curve.planes
        _check_radius(frame, float(times[-1]))
        summary["jet_case"] = case.case
        summary["series_start"] = window.diagnostics["series_start"]
        summary["equilibrium"] = _jsonable(window.diagnostics["equilibrium"])
    else:
        eps = [e for e in config.tolerances["eps_family"] if e < grid[0]]
        if not eps:
            raise ConfigError("tolerances.eps_family: no entry lies below grid.t0")
        times = grid[:1]
        _check_radius(frame, float(times[-1]))
        family = np.stack(epsilon_family_oracle(frame.coeffs, l0_nf, float(grid[0]), eps, rtol=rtol))
        nf_planes = family[-1:]
        summary["eps_family"] = list(map(float, eps))
        summary["oracle_distances"] = plane_distance(family[:-1], family[1:]).tolist()
    # M(t) maps the planes back at t_h and the nodes before it only; past t_h the
    # curve solves the order-0 Jacobi equation of the original data, one march
    t_h = float(times[-1])
    local = canonicalize(meval(frame.frame, times) @ np.stack(nf_planes))
    kept = int(np.count_nonzero(grid <= t_h))
    planes = list(local[:kept])
    if kept < grid.size:
        planes += singular_jacobi_curve(data, local[-1], (t_h, float(grid[-1])),
                                        np.append(t_h, grid[kept:]), rtol=rtol).curve.planes[1:]
    rows, flow = _trace_rows(GrassmannCurve(times=grid, planes=planes), [jump], config.n)
    return TraceOutput(columns, rows, summary, flow)


def _check_radius(frame, t: float) -> None:
    """Refuse a handover time ``t`` where the frame series' top orders are not negligible."""
    if not _tail_within(np.linalg.norm(frame.frame, axis=(1, 2)), t):
        raise RadiusError(f"handover time {t} lies past the radius of the normal form series")


def _run_portrait(config: ScenarioConfig) -> TraceOutput:
    c = config.data["c"]
    u0 = config.data["u0"]
    v0 = config.data["v0"]
    grid = config.grid
    coeffs = NormalFormCoefficients(
        k=1, m=2, b=np.array([0.0, 0.0, -1.0]), b11=np.zeros(1), c11=np.array([-c])
    )
    t_first = float(grid[0])
    # every start line in one march: the steps depend on the system and the
    # grid only, so a line's values do not depend on the other lines
    starts = [[[1.0], [-val]] for val in u0] + [[[-val], [t_first]] for val in v0]
    lines = np.linalg.qr(np.array(starts, dtype=float).reshape(-1, 2, 1))[0]
    marched = _integrate(coeffs.system, lines, grid, config.tolerances["rtol"])
    # coords[node][line]: the two coordinates of the canonical frame, as
    # flow_plane emits it; every node and line in one stack
    marched[1:] = np.linalg.qr(marched[1:])[0]
    coords = canonicalize(marched.reshape(-1, 2, 1)).reshape(len(grid), -1, 2).tolist()

    table: list[list] = [[float(t)] for t in grid]
    columns = ["time"]
    for idx in range(len(u0)):
        columns.append(f"u_{idx}")
        for row, ps in zip(table, coords):
            den, num = ps[idx]
            u = -num / den if abs(den) > 1e-12 else math.inf
            row.append(u if abs(u) <= PORTRAIT_MASK else None)
    for idx in range(len(v0)):
        columns.append(f"v_{idx}")
        for t, row, ps in zip(grid, table, coords):
            num, den = ps[len(u0) + idx]
            v = -float(t) * num / den if abs(den) > 1e-12 else math.inf
            row.append(v if abs(v) <= PORTRAIT_MASK else None)

    disc = 1.0 + 4.0 * c
    verdict = kneser_classify(np.array([[-1.0]]), np.array([[-c]]), 2, config.tolerances["tol_thresh"])
    if disc >= 0.0:
        root = math.sqrt(disc)
        if c != 0.0:
            equilibria = sorted([(1.0 - root) / (2.0 * c), (1.0 + root) / (2.0 * c)])
        else:
            equilibria = [-1.0]
    else:
        equilibria = []
    summary = {
        "mode": config.mode,
        "n": config.n,
        "seed": config.seed,
        "c": c,
        "verdict": verdict,
        "delta": root if disc >= 0.0 else None,
        "equilibria": equilibria,
        "events": [],
    }
    return TraceOutput(columns, table, summary)


def run(config: ScenarioConfig, verb: str = "trace") -> TraceOutput:
    """Execute the scenario pipeline selected by ``config.mode`` and ``verb``."""

    if verb not in VERBS:
        raise ConfigError(f"verb: must be one of {', '.join(VERBS)}")
    if verb == "bangbang" and config.mode != "bangbang":
        raise ConfigError("verb bangbang: scenario mode must be bangbang")
    if verb == "portrait" and config.mode != "portrait":
        raise ConfigError("verb portrait: scenario mode must be portrait")
    if verb in ("classify", "jump") and config.mode != "legendre_degeneracy":
        raise ConfigError(f"verb {verb}: scenario mode must be legendre_degeneracy")
    if verb == "maslov" and config.mode == "portrait":
        raise ConfigError("verb maslov: portrait scenarios carry no plane curve")

    if config.mode == "portrait":
        out = _run_portrait(config)
    elif config.mode == "bangbang":
        out = _run_bangbang(config)
    elif config.mode == "legendre_degeneracy":
        out = _run_degeneracy(config, verb)
    else:
        out = _run_interval_mode(config)

    if verb == "maslov":
        # the same count as maslov_index(curve, Pi), on the pass of the rows
        out.summary["maslov_index"] = out.flow.index()
    return out


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------


def _cell_format(kind: type) -> str:
    """The %-format of a CSV cell of this type: empty for ``None``, integers
    (``bool`` too) in decimal, anything else as a float to 17 digits."""
    if kind is type(None):
        return "%.0s"
    if issubclass(kind, (int, np.integer)):
        return "%d"
    return "%.17g"


def _csv_lines(rows) -> list[str]:
    """One CSV line per row, formatted by one %-format per distinct row of cell types."""
    formats: dict[tuple, str] = {}
    lines = []
    for row in rows:
        kinds = tuple(map(type, row))
        fmt = formats.get(kinds)
        if fmt is None:
            fmt = formats[kinds] = ",".join(map(_cell_format, kinds))
        lines.append(fmt % tuple(row))
    return lines


def emit(output: TraceOutput, out_path: str | Path, format: str = "csv") -> list[Path]:
    """Write the trace to disk; returns the list of files written.

    ``csv`` writes the rows, a ``.columns`` sidecar naming the columns, and
    a ``.summary.json`` sidecar; ``json`` writes one self-contained file.
    """

    if format not in FORMATS:
        raise ConfigError(f"format: must be one of {', '.join(FORMATS)}")
    out_path = Path(out_path)
    if out_path.parent and not out_path.parent.exists():
        out_path.parent.mkdir(parents=True, exist_ok=True)
    written = []
    summary = _jsonable(output.summary)
    if format == "csv":
        lines = [",".join(output.columns)]
        lines += _csv_lines(output.rows)
        out_path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
        written.append(out_path)
        manifest = out_path.with_name(out_path.name + ".columns")
        manifest.write_text("\n".join(output.columns) + "\n", encoding="utf-8", newline="\n")
        written.append(manifest)
        spath = out_path.with_name(out_path.name + ".summary.json")
        spath.write_text(
            json.dumps(summary, sort_keys=True, indent=2) + "\n", encoding="utf-8", newline="\n"
        )
        written.append(spath)
    else:
        blob = {
            "columns": output.columns,
            "rows": _jsonable(output.rows),
            "summary": summary,
        }
        out_path.write_text(
            json.dumps(blob, sort_keys=True, indent=2) + "\n", encoding="utf-8", newline="\n"
        )
        written.append(out_path)
    return written


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # keep every failure on the structured path
        raise ConfigError(f"arguments: {message}")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    common = _Parser(add_help=False)
    common.add_argument("scenario", nargs="+", help="scenario JSON file(s)")
    common.add_argument("--out", help="output path (directory in batch runs)")
    common.add_argument("--format", choices=FORMATS, default="csv")
    common.add_argument("--seed", type=int, default=None,
                        help="override the scenario seed (a label echoed in the summary)")
    common.add_argument("--tol-overrides", default=None, help="JSON object merged into tolerances")
    common.add_argument("--batch", action="store_true", help="process several scenarios in one run")
    parser = _Parser(prog="jacobiflow", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb in VERBS:
        sub.add_parser(verb, parents=[common])
    return parser


def _error_object(exc: Exception, stage: str, scenario: str | None) -> tuple[dict, int]:
    if isinstance(exc, ConfigError):
        code = EXIT_CONFIG
    elif isinstance(exc, (MathError, JacobiflowError)):
        code = EXIT_MATH
    elif isinstance(exc, OSError):
        code = EXIT_IO
    else:
        raise exc
    obj = {
        "code": code,
        "stage": stage,
        "error": type(exc).__name__,
        "message": str(exc),
    }
    if scenario is not None:
        obj["scenario"] = scenario
    return obj, code


def _default_out(scenario: Path, fmt: str, directory: Path | None) -> Path:
    stem = scenario.name[: -len(scenario.suffix)] if scenario.suffix else scenario.name
    name = f"{stem}.out.{fmt}"
    return (directory / name) if directory is not None else scenario.with_name(name)


def _process_one(path_str: str, verb: str, fmt: str, out: Path | None,
                 seed: int | None, overrides: dict | None) -> tuple[dict | None, int]:
    stage = "parse"
    try:
        config = parse_scenario(path_str)
        if seed is not None:
            config.seed = seed
        if overrides:
            config.tolerances = _merge_tolerances(config.tolerances, overrides)
        stage = "run"
        result = run(config, verb)
        stage = "emit"
        target = out if out is not None else _default_out(Path(path_str), fmt, None)
        emit(result, target, fmt)
        return None, EXIT_OK
    except Exception as exc:  # noqa: BLE001 - routed through the taxonomy
        return _error_object(exc, stage, path_str)


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
        overrides = None
        if args.tol_overrides:
            try:
                overrides = json.loads(args.tol_overrides)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"--tol-overrides: invalid JSON: {exc}") from exc
            if not isinstance(overrides, dict):
                raise ConfigError("--tol-overrides: expected a JSON object")
        if len(args.scenario) > 1 and not args.batch:
            raise ConfigError("arguments: several scenarios need --batch")
    except ConfigError as exc:
        obj, code = _error_object(exc, "parse", None)
        print(json.dumps(obj, sort_keys=True), file=sys.stderr)
        return code

    if args.batch:
        out_dir = Path(args.out) if args.out else None
        if out_dir is not None:
            try:
                out_dir.mkdir(parents=True, exist_ok=True)
            except OSError as exc:  # e.g. --out names a regular file
                obj, code = _error_object(exc, "emit", None)
                print(json.dumps(obj, sort_keys=True), file=sys.stderr)
                return code
        code = EXIT_OK
        for path in args.scenario:
            target = _default_out(Path(path), args.format, out_dir) if out_dir else None
            err, one_code = _process_one(path, args.verb, args.format, target, args.seed, overrides)
            if err is not None:
                print(json.dumps(err, sort_keys=True), file=sys.stderr)
                if code == EXIT_OK:
                    code = one_code
        return code

    out = Path(args.out) if args.out else None
    err, code = _process_one(args.scenario[0], args.verb, args.format, out, args.seed, overrides)
    if err is not None:
        print(json.dumps(err, sort_keys=True), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
