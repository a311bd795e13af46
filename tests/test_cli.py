"""Exit codes and byte-stable outputs of the command line front end."""

import contextlib
import dataclasses
import io
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from helpers import continued, jet_case, random_lagrangian
from jacobiflow import cli, engine, flows, grassmann, maslov, symplectic
from jacobiflow.cli import DEFAULT_U0, DEFAULT_V0, main
from jacobiflow.engine import PiecewiseAnalytic, singular_jacobi_curve
from jacobiflow.errors import (
    ConfigError,
    JacobiflowError,
    NondegeneracyError,
    PreconditionError,
    RadiusError,
)
from jacobiflow.flows import flow_plane
from jacobiflow.grassmann import (
    _chart_matrix,
    _pi_chart,
    canonicalize,
    plane_distance,
    vertical_plane,
)
from jacobiflow.series import meval
from jacobiflow.singular.firstjet import _tail_within
from jacobiflow.singular.frame import build_normal_frame
from jacobiflow.singular.jump import epsilon_family_oracle
from jacobiflow.symplectic import symplectic_inverse

GOLDEN = Path(__file__).resolve().parent / "golden"
SRC = Path(__file__).resolve().parents[1] / "src"
CORPUS = Path(__file__).resolve().parents[1] / "perfbench" / "corpus"
SCENARIO = GOLDEN / "degen_m3_short.json"

# each entry slipped past the --tol-overrides path before it shared the
# scenario validator: the first two ran to exit 0, the last two exited 3
BAD_TOLERANCES = [
    {"rtol": -1},
    {"nterms": 500},
    {"nterms": 2},
    {"eps_family": [-1]},
    # not a tolerance: refused as an unknown field
    {"imax": -1},
    {"imax": 65},
]


def _errors(capsys) -> list[dict]:
    return [json.loads(line) for line in capsys.readouterr().err.splitlines()]


@pytest.mark.parametrize("bad", BAD_TOLERANCES, ids=json.dumps)
def test_tol_overrides_are_config_errors(tmp_path, capsys, bad):
    code = main(["trace", str(SCENARIO), "--out", str(tmp_path / "o.csv"),
                 "--tol-overrides", json.dumps(bad)])
    assert code == 2
    [err] = _errors(capsys)
    assert err["error"] == "ConfigError" and err["stage"] == "parse"
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("bad", BAD_TOLERANCES, ids=json.dumps)
def test_scenario_tolerances_are_config_errors(tmp_path, capsys, bad):
    raw = json.loads(SCENARIO.read_text())
    raw["tolerances"] = bad
    path = tmp_path / "s.json"
    path.write_text(json.dumps(raw))
    assert main(["trace", str(path), "--out", str(tmp_path / "o.csv")]) == 2
    [err] = _errors(capsys)
    assert err["error"] == "ConfigError" and err["stage"] == "parse"


def test_batch_reports_errors_in_input_order(tmp_path, capsys):
    good = tmp_path / "good.json"
    shutil.copy(SCENARIO, good)
    # X constant: sigma(X, X') vanishes, so the frame construction refuses (exit 3)
    raw = json.loads(SCENARIO.read_text())
    raw["data"]["x"] = [[[1], [0], [0], [0]]]
    flat = tmp_path / "flat.json"
    flat.write_text(json.dumps(raw))
    missing = tmp_path / "missing.json"
    out_dir = tmp_path / "out"
    code = main(["classify", str(flat), str(good), str(missing), "--batch",
                 "--out", str(out_dir)])
    assert code == 3  # the first failing code, not the largest or the last
    errs = _errors(capsys)
    assert [e["scenario"] for e in errs] == [str(flat), str(missing)]
    assert [e["code"] for e in errs] == [3, 2]
    assert sorted(p.name for p in out_dir.iterdir()) == [
        "good.out.csv", "good.out.csv.columns", "good.out.csv.summary.json",
    ]


def _assert_golden(tmp_path, verb: str, scenario: str, csv: str, summary: str) -> None:
    """Run one verb and compare its CSV and summary with files captured earlier."""
    out = tmp_path / "out.csv"
    assert main([verb, str(GOLDEN / f"{scenario}.json"), "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / csv).read_bytes()
    summary_out = tmp_path / "out.csv.summary.json"
    assert summary_out.read_bytes() == (GOLDEN / summary).read_bytes()


def test_golden_degen_m3_trace_is_byte_stable(tmp_path):
    _assert_golden(tmp_path, "trace", "degen_m3_short",
                   "degen_m3_short.csv", "degen_m3_short.csv.summary.json")


# first-jet continuation: three nodes inside the series window (it ends at
# 0.1), then the march of the original data from 0.1, across the time
# (between 0.7525 and 0.79375) where the curve leaves the blow-up chart
def test_golden_degen_m2_trace_is_byte_stable(tmp_path):
    _assert_golden(tmp_path, "trace", "degen_m2_short",
                   "degen_m2_short.csv", "degen_m2_short.csv.summary.json")


def test_golden_portrait_is_byte_stable(tmp_path):
    _assert_golden(tmp_path, "portrait", "portrait_short",
                   "portrait_short.csv", "portrait_short.csv.summary.json")


def test_portrait_lines_are_near_the_lines_marched_at_the_rtol_floor(tmp_path, monkeypatch):
    # the portrait's march opens next to the order-2 pole at t = 0 with a
    # step that fails; the steps that follow it keep every line of
    # portrait_short within 5e-9 rad (3.1e-11 measured), and of the corpus
    # portrait within 1e-8 rad (8.4e-9), of the same march at the smallest
    # rtol the kernel honours
    marched = []

    def recorded(*args, _fn=flows._integrate):
        marched.append(_fn(*args))
        return marched[-1]

    monkeypatch.setattr(flows, "_integrate", recorded)
    for scenario, bound in ((GOLDEN / "portrait_short.json", 5e-9),
                            (CORPUS / "portrait.json", 1e-8)):
        marched.clear()
        for tol in ({}, {"rtol": flows._RTOL_MIN}):
            assert main(["portrait", str(scenario), "--out", str(tmp_path / "p.csv"),
                         "--tol-overrides", json.dumps(tol)]) == 0
        lines, floor = (m.reshape(-1, 2, 1) for m in marched)
        assert np.max(np.arcsin(plane_distance(lines, floor))) < bound


# chart columns, Maslov partial sums (0 -> 1 on [0, 4]; nan and blank chart
# cells in bangbang), the maslov_index summary key and the jump flags; the
# maslov verb writes the same CSV as trace
@pytest.mark.parametrize("verb, scenario, csv, summary", [
    ("trace", "regular_short", "regular_short.trace.csv", "regular_short.trace.csv.summary.json"),
    ("maslov", "regular_short", "regular_short.trace.csv", "regular_short.maslov.csv.summary.json"),
    ("bangbang", "bangbang_short", "bangbang_short.csv", "bangbang_short.csv.summary.json"),
], ids=["regular-trace", "regular-maslov", "bangbang"])
def test_golden_curve_outputs_are_byte_stable(tmp_path, verb, scenario, csv, summary):
    _assert_golden(tmp_path, verb, scenario, csv, summary)


# the jumps no other golden or benchmark op reaches: the infinite-order
# extension by a two-dimensional derivative span, the boundary space of
# order m < n (n = 2, m = 1 and n = 3, m = 2) with its drift check, the
# first-jet cases 2 and 3, from the degen_m2_short data, and the normal form
# of one degree of freedom (n = 1: a k = 1 frame, the first-jet case and
# blow-up equilibrium of one line)
@pytest.mark.parametrize("scenario", ["infinite_short", "order1_short", "order2_n3_short",
                                      "degen_m2_case2_short", "degen_m2_case3_short",
                                      "degen_n1_short"])
def test_golden_jump_branches_are_byte_stable(tmp_path, scenario):
    _assert_golden(tmp_path, "trace", scenario, f"{scenario}.csv", f"{scenario}.csv.summary.json")


# the degen_m1 data from M(0) P, P a plane of the normal-form coordinates
# (p1, p2, q1, q2) that meets Sigma, the q-axes, so it has no chart matrix
# over the momentum span and first_jet_case reads the dimension of the meet:
# P = span{e_q2, e_q1 + e_p1 / 2} meets Sigma in a line (case 2), P = Sigma
# is case 3
@pytest.mark.parametrize("scenario, case", [("degen_m1_case2_short", 2),
                                            ("degen_m1_case3_short", 3)])
def test_golden_non_transversal_jet_cases_are_byte_stable(tmp_path, scenario, case):
    _assert_golden(tmp_path, "trace", scenario, f"{scenario}.csv", f"{scenario}.csv.summary.json")
    assert json.loads((GOLDEN / f"{scenario}.csv.summary.json").read_text())["jet_case"] == case


def test_golden_start_plane_outside_the_chart_classes_is_refused(tmp_path, capsys):
    # P = span{e_q1, e_p2} meets Sigma in a line, and the case-2 transform
    # does not cover it: the measure-zero position no transform covers
    assert main(["trace", str(GOLDEN / "degen_m1_uncovered_short.json"),
                 "--out", str(tmp_path / "o.csv")]) == 3
    [err] = _errors(capsys)
    assert (err["error"], err["stage"]) == ("ChartError", "run")
    assert "outside the chart classes" in err["message"]


def test_golden_block_smaller_than_the_space_classifies_and_refuses_the_jump(tmp_path, capsys):
    # X = (1, 0, t, 0) spans two dimensions with its derivatives in n = 2: a
    # k = 1 frame completed by the coordinate pool; the classification stands,
    # and the continuation needs the block to fill the space
    _assert_golden(tmp_path, "classify", "degen_k1_n2_short", "degen_k1_n2_short.classify.csv",
                   "degen_k1_n2_short.classify.csv.summary.json")
    assert main(["jump", str(GOLDEN / "degen_k1_n2_short.json"),
                 "--out", str(tmp_path / "j.csv")]) == 2
    [err] = _errors(capsys)
    assert err["error"] == "ConfigError" and "fill the space" in err["message"]


def test_an_infinite_order_trace_writes_one_row_per_grid_node(tmp_path):
    raw = json.loads((GOLDEN / "infinite_short.json").read_text())
    out = tmp_path / "inf.csv"
    assert main(["trace", str(GOLDEN / "infinite_short.json"), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + raw["grid"]["steps"]
    times = [float(line.split(",", 1)[0]) for line in lines[1:]]
    assert times == pytest.approx(np.linspace(raw["grid"]["t0"], raw["grid"]["t1"],
                                              raw["grid"]["steps"]))
    # the curve is constant: every row after its time cell is the first row's
    assert len({line.split(",", 1)[1] for line in lines[1:]}) == 1


def test_an_order_m_plane_containing_x_is_refused(tmp_path, capsys):
    # X(0.1) = (1, 0, 0.1, 0) lies in the plane, so the boundary space is the
    # whole plane, of dimension 2, not n - m = 1; a rank rule relative to the
    # largest pairing accepts this frame of it
    def edit(raw):
        raw["data"]["x"] = [[[1], [0], [0, 1], [0]]]
        raw["initial_plane"] = [[1.3, 0.7], [0.7, -0.7], [0.13, 0.07], [0.11, -0.11]]
        raw["grid"] = {"t0": 0.1, "t1": 0.9, "steps": 9}

    code, [err] = _run_variant(tmp_path, capsys, "order1_short", "trace", edit)
    assert code == 3
    assert (err["error"], err["stage"]) == ("NondegeneracyError", "run")
    assert err["message"] == "boundary space has dimension 2, expected 1"


#: the functions of the CLI that make a stack of planes, each one stack a call
STACK_MAKERS = ("_jacobi_curve", "_infinite_curve", "_bang_bang",
                "first_jet_continuation", "epsilon_family_oracle")


def _record_stack_checks(monkeypatch) -> dict:
    """From now on, record the 3-D stacks handed to ``validate_lagrangian``,
    ``np.linalg.matrix_rank`` and, outside ``validate_lagrangian``,
    ``isotropy_residual``, in every jacobiflow module that binds them, the
    stacks the CLI counts (``_spectral_flow``) and the calls of the stack
    makers (``made``)."""
    seen = {"validate_lagrangian": [], "isotropy_residual": [], "matrix_rank": [],
            "counted": [], "made": []}
    validating = []

    def recording(key, fn):
        def wrapped(f, *a, **k):
            if np.ndim(f) == 3 and not (key == "isotropy_residual" and any(validating)):
                seen[key].append(np.array(f))
            validating.append(key == "validate_lagrangian")
            try:
                return fn(f, *a, **k)
            finally:
                validating.pop()
        return wrapped

    for key, fn in (("validate_lagrangian", grassmann.validate_lagrangian),
                    ("isotropy_residual", symplectic.isotropy_residual)):
        for module in list(sys.modules.values()):
            if module.__name__.startswith("jacobiflow") and getattr(module, key, None) is fn:
                monkeypatch.setattr(module, key, recording(key, fn))
    monkeypatch.setattr(np.linalg, "matrix_rank", recording("matrix_rank", np.linalg.matrix_rank))
    monkeypatch.setattr(cli, "_spectral_flow", recording("counted", cli._spectral_flow))
    for name in STACK_MAKERS:
        def making(*a, _fn=getattr(cli, name), _name=name, **k):
            seen["made"].append(_name)
            return _fn(*a, **k)
        monkeypatch.setattr(cli, name, making)
    return seen


@pytest.mark.parametrize("path", sorted(p for p in GOLDEN.glob("*.json")
                                         if not p.name.endswith(".summary.json")),
                         ids=lambda p: p.stem)
def test_each_counted_stack_is_checked_once_where_it_is_made(monkeypatch, path):
    # the Maslov pass trusts the stacks the package made: no node it counts
    # reaches the SVD rank test in a stack, and each stack made gets a single
    # isotropy residual, from its maker, which covers every node it counts
    config = cli.parse_scenario(path)
    seen = _record_stack_checks(monkeypatch)
    for verb in cli.VERBS:
        for record in seen.values():
            record.clear()
        try:
            cli.run(config, verb)
        except JacobiflowError:
            continue
        assert len(seen["counted"]) == (verb in ("trace", "maslov", "bangbang")
                                        and config.mode != "portrait"), verb
        checked = seen["isotropy_residual"]
        assert len(checked) == len(seen["made"]), (verb, seen["made"])
        for stack in seen["counted"]:
            counted = {frame.tobytes() for frame in stack}
            for key in ("validate_lagrangian", "matrix_rank"):
                assert not any(f.tobytes() in counted for arg in seen[key] for f in arg), key
            made = {frame.tobytes() for arg in checked for frame in arg}
            assert counted <= made, verb


@st.composite
def _malformed_plane(draw):
    """A ``(2n, k)`` frame that is not a Lagrangian plane, and the message
    the Lagrangian check gives it: rank deficient (a column twice another,
    or zero), not isotropic (a column moved by t J times another, t in
    [1e-3, 1]), or another column count than n."""
    n = draw(st.integers(1, 3))
    frame = random_lagrangian(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), n)
    kind = draw(st.sampled_from(("deficient", "leaky", "wide", "narrow") if n > 1
                                else ("deficient", "wide")))
    if kind == "deficient":
        frame[:, -1] = 2.0 * frame[:, 0] if n > 1 else 0.0
        return n, frame, NondegeneracyError, "Lagrangian frame is rank deficient"
    if kind == "leaky":
        frame[:, 0] += draw(st.floats(1e-3, 1.0)) * symplectic.apply_j(frame[:, 1])
        return n, frame, NondegeneracyError, "frame is not isotropic to tolerance"
    frame = np.hstack([frame, frame[:, :1]]) if kind == "wide" else frame[:, :-1]
    return (n, frame, PreconditionError,
            f"Lagrangian frame must have n={n} columns, got {frame.shape[1]}")


@settings(max_examples=40, deadline=None)
@given(_malformed_plane(), st.integers(0, 3))
def test_a_malformed_plane_from_outside_is_refused_at_each_entry_point(tmp_path_factory, bad,
                                                                       node):
    n, frame, error, message = bad
    rng = np.random.default_rng(node)
    good = [random_lagrangian(rng, n) for _ in range(4)]
    x = [[1.0]] + [[0.0]] * (2 * n - 1)
    data = PiecewiseAnalytic([0.0, 1.0], [[-1.0]], [x])
    grid = np.linspace(0.0, 1.0, 4)

    def refuses(call, *args, kind=error, text=message):
        with pytest.raises(kind) as caught:
            call(*args)
        assert type(caught.value) is kind and str(caught.value) == text

    path = tmp_path_factory.mktemp("plane") / "s.json"
    raw = {"n": n, "mode": "regular", "initial_plane": good[0].tolist(),
           "data": {"breakpoints": [0, 1], "b": [[-1]], "x": [x]},
           "grid": {"t0": 0, "t1": 1, "steps": 3}}
    path.write_text(json.dumps(raw))
    assert cli.parse_scenario(path).n == n
    raw["initial_plane"] = frame.tolist()
    path.write_text(json.dumps(raw))
    parsed = (f"initial_plane[0]: expected {n} columns" if error is PreconditionError
              else f"initial_plane: columns must span a Lagrangian plane ({message})")
    refuses(cli.parse_scenario, path, kind=ConfigError, text=parsed)
    refuses(engine.singular_jacobi_curve, data, frame, grid)
    refuses(engine.infinite_order_curve, data, frame, grid)
    refuses(engine.bang_bang_sequence, frame, [x])
    # a curve counted over a malformed Pi, and a malformed curve counted over
    # a Lagrangian Pi: one bad node, or every node of another shape
    nodes = ([frame] * 4 if error is PreconditionError
             else good[:node] + [frame] + good[node + 1:])
    for count in (maslov.maslov_index, maslov.maslov_partial_sums):
        refuses(count, grassmann.GrassmannCurve(times=grid, planes=good), frame)
        refuses(count, grassmann.GrassmannCurve(times=grid, planes=nodes), vertical_plane(n))


@settings(max_examples=10, deadline=None)
@given(st.sampled_from([CORPUS / "regular.json", GOLDEN / "regular_short.json"]),
       st.floats(0.02, 0.98))
@example(GOLDEN / "regular_short.json", 0.78)  # the node before its crossing of Pi
def test_a_trace_restarted_from_an_emitted_plane_continues_it(tmp_path_factory, path, share):
    # split a regular trace at an interior node and restart it from the plane
    # it emitted there: the planes agree, and the Maslov partial sums add up
    # (regular_short crosses Pi once, between its nodes 31 and 32)
    out = tmp_path_factory.mktemp("split")
    raw = json.loads(path.read_text())

    def trace(sc: dict) -> np.ndarray:
        (out / "s.json").write_text(json.dumps(sc))
        assert main(["trace", str(out / "s.json"), "--out", str(out / "o.csv")]) == 0
        return np.genfromtxt(out / "o.csv", delimiter=",", skip_header=1)

    whole = trace(raw)
    n = raw["n"]
    j = max(1, min(len(whole) - 2, int(share * len(whole))))
    raw["initial_plane"] = whole[j, 1 : 1 + 2 * n * n].reshape(2 * n, n).tolist()
    raw["grid"] = {"t0": whole[j, 0], "t1": raw["grid"]["t1"], "steps": len(whole) - j}
    rest = trace(raw)
    frames = [rows[:, 1 : 1 + 2 * n * n].reshape(-1, 2 * n, n) for rows in (whole[j:], rest)]
    assert np.max(np.abs(rest[:, 0] - whole[j:, 0])) <= 1e-15 * abs(whole[-1, 0])
    assert np.max(plane_distance(*frames)) < 1e-12
    assert np.array_equal(whole[j:, -2], whole[j, -2] + rest[:, -2])


def test_consecutive_calls_share_one_parser_and_leak_no_state(tmp_path, capsys):
    scenario = str(GOLDEN / "regular_short.json")

    def plain(name: str) -> dict[str, bytes]:
        directory = tmp_path / name
        directory.mkdir()
        assert main(["trace", scenario, "--out", str(directory / "o.csv")]) == 0
        return {p.name: p.read_bytes() for p in directory.iterdir()}

    before = plain("before")
    parser = cli._parser()
    assert main(["maslov", scenario, "--out", str(tmp_path / "o.json"), "--format", "json",
                 "--seed", "7", "--tol-overrides", '{"rtol": 1e-10}']) == 0
    assert json.loads((tmp_path / "o.json").read_text())["summary"]["seed"] == 7
    assert main(["trace", scenario, scenario, "--batch", "--out", str(tmp_path / "batch")]) == 0
    # neither --batch nor the seed, format or tolerances of the calls before stick
    assert main(["trace", scenario, scenario]) == 2
    assert _errors(capsys)[0]["message"] == "arguments: several scenarios need --batch"
    assert plain("after") == before
    assert cli._parser() is parser


def test_regular_mode_uses_the_scenario_rtol(tmp_path):
    # a loose rtol reaches the transport, from the scenario or the override;
    # every node is a step end, so the grid is coarse enough for rtol to bind
    raw = json.loads((GOLDEN / "regular_short.json").read_text())
    raw["grid"]["steps"] = 4
    coarse = tmp_path / "coarse.json"
    coarse.write_text(json.dumps(raw))
    raw["tolerances"] = {"rtol": 1e-8}
    loose = tmp_path / "loose.json"
    loose.write_text(json.dumps(raw))
    runs = {
        "default": [str(coarse)],
        "override": [str(coarse), "--tol-overrides", '{"rtol": 1e-8}'],
        "scenario": [str(loose)],
    }
    csv = {}
    for name, args in runs.items():
        assert main(["trace", *args, "--out", str(tmp_path / f"{name}.csv")]) == 0
        csv[name] = (tmp_path / f"{name}.csv").read_bytes()
    assert csv["override"] == csv["scenario"] != csv["default"]


@pytest.mark.parametrize("c", [2.0, -2.0])
def test_portrait_line_does_not_depend_on_the_other_lines(tmp_path, c):
    # all start lines share one march, and its steps depend on the system and
    # the grid only: a line listed alone gives the same bytes as in the full
    # set.  From t0 = 1e-3, c = 2 grows some lines past the QR bound, which
    # is decided per line.
    raw = {"n": 1, "mode": "portrait", "data": {"c": c},
           "grid": {"t0": 1e-3, "t1": 1, "steps": 60}}

    def columns(data: dict) -> dict[str, list[str]]:
        raw["data"] = {"c": c, **data}
        path = tmp_path / "p.json"
        path.write_text(json.dumps(raw))
        assert main(["portrait", str(path), "--out", str(tmp_path / "p.csv")]) == 0
        lines = (tmp_path / "p.csv").read_text().splitlines()
        return dict(zip(lines[0].split(","), zip(*(line.split(",") for line in lines[1:]))))

    full = columns({})
    for u, v in [(0, 6), (3, 1), (6, 3)]:
        alone = columns({"u0": [DEFAULT_U0[u]], "v0": [DEFAULT_V0[v]]})
        assert alone["u_0"] == full[f"u_{u}"]
        assert alone["v_0"] == full[f"v_{v}"]


def test_portrait_cells_are_the_per_cell_quotients(tmp_path, monkeypatch):
    # the table against the per-cell loop it replaced, on the canonical
    # coordinates (p, q) of every node and line: u = -q/p, v = -t p/q, and
    # None where the denominator is at most 1e-12 (u_2, v_2 at t0) or the
    # value passes PORTRAIT_MASK (u_1, v_1 at t0)
    canonical = []

    def recorded(frames):
        canonical.append(canonicalize(frames))
        return canonical[-1]

    monkeypatch.setattr(flows, "canonicalize", recorded)
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"n": 1, "mode": "portrait",
                                "data": {"c": 2.0, "u0": [0.5, 1e7, 1e13], "v0": [1.0, 1e7, 1e13]},
                                "grid": {"t0": 1e-3, "t1": 1, "steps": 20}}))
    config = cli.parse_scenario(path)
    out = cli.run(config, "portrait")
    coords = canonical[-1].reshape(len(config.grid), -1, 2).tolist()
    expected = [[float(t)] for t in config.grid]
    for idx in range(3):
        for row, ps in zip(expected, coords):
            den, num = ps[idx]
            u = -num / den if abs(den) > 1e-12 else np.inf
            row.append(u if abs(u) <= cli.PORTRAIT_MASK else None)
    for idx in range(3):
        for t, row, ps in zip(config.grid, expected, coords):
            num, den = ps[3 + idx]
            v = -float(t) * num / den if abs(den) > 1e-12 else np.inf
            row.append(v if abs(v) <= cli.PORTRAIT_MASK else None)
    assert repr(out.rows) == repr(expected)
    assert out.rows[0][2:4] == [None, None] and out.rows[0][5:] == [None, None]


def test_event_rows_are_the_nodes_the_producer_names(tmp_path):
    # bang-bang: the rows flagged are the switches whose plane moved, at the
    # times the summary lists; a degeneracy trace's jump at t = 0 lies before
    # its first node, however close grid.t0 comes to it
    out = tmp_path / "o.csv"
    assert main(["bangbang", str(GOLDEN / "bangbang_short.json"), "--out", str(out)]) == 0
    rows = np.genfromtxt(out, delimiter=",", skip_header=1)
    summary = json.loads((tmp_path / "o.csv.summary.json").read_text())
    assert summary["event_count"] > 0
    assert rows[rows[:, -1] == 1, 0].tolist() == [e["time"] for e in summary["events"]]
    raw = json.loads((GOLDEN / "degen_m2_short.json").read_text())
    raw["grid"]["t0"] = 1e-10
    (tmp_path / "s.json").write_text(json.dumps(raw))
    assert main(["trace", str(tmp_path / "s.json"), "--out", str(out)]) == 0
    rows = np.genfromtxt(out, delimiter=",", skip_header=1)
    summary = json.loads((tmp_path / "o.csv.summary.json").read_text())
    assert rows[0, 0] == 1e-10 and summary["events"][0]["time"] == 0.0
    assert not rows[:, -1].any()


@pytest.mark.parametrize("scenario, verb", [
    ("regular_short", "trace"), ("bangbang_short", "bangbang"), ("degen_m2_short", "trace"),
    ("degen_m3_short", "trace"),
])
def test_chart_columns_are_the_sigma_pi_chart_matrices(scenario, verb):
    # the rows read their chart columns off the Maslov pass, whose chart over
    # Pi is the chart (Sigma, Pi): bit for bit the matrices it solves for the
    # frames, blank off the chart
    config = cli.parse_scenario(GOLDEN / f"{scenario}.json")
    n = config.n
    rows = cli.run(config, verb).rows
    frames = np.array([row[1 : 1 + 2 * n * n] for row in rows]).reshape(-1, 2 * n, n)
    charts = _chart_matrix(frames, _pi_chart(vertical_plane(n))).reshape(len(rows), -1)
    expected = [[None if np.isnan(c) else c for c in chart] for chart in charts.tolist()]
    assert [row[1 + 2 * n * n : 1 + 3 * n * n] for row in rows] == expected
    assert any(row[1 + 2 * n * n] is not None for row in rows)


@pytest.mark.parametrize("name", ["degen_m1", "degen_m2"])
def test_corpus_first_jet_traces_reach_t1(tmp_path, name):
    # both curves leave the blow-up chart before t = 1
    out = tmp_path / "o.csv"
    assert main(["trace", str(CORPUS / f"{name}.json"), "--out", str(out)]) == 0
    rows = out.read_text().splitlines()[1:]
    assert len(rows) == 200
    assert float(rows[-1].split(",")[0]) == 1.0


def test_maslov_refuses_curve_starting_on_reference_plane(tmp_path, capsys):
    # order2's X(0) lies in Pi, so the curve's first node does
    out = tmp_path / "o.csv"
    assert main(["maslov", str(GOLDEN / "order2_short.json"), "--out", str(out)]) == 3
    [err] = _errors(capsys)
    assert (err["error"], err["stage"]) == ("PreconditionError", "run")
    assert not out.exists()


def _run_variant(tmp_path, capsys, scenario: str, verb: str, edit) -> tuple[int, list[dict]]:
    """Run ``verb`` on a golden scenario after ``edit`` changed its JSON."""
    raw = json.loads((GOLDEN / f"{scenario}.json").read_text())
    edit(raw)
    path = tmp_path / "s.json"
    path.write_text(json.dumps(raw))
    out = tmp_path / "o.csv"
    code = main([verb, str(path), "--out", str(out)])
    assert not out.exists()
    return code, _errors(capsys)


# each of these used to pass the parser and exit 3 at stage run
def test_grid_outside_the_breakpoints_is_a_config_error(tmp_path, capsys):
    code, [err] = _run_variant(tmp_path, capsys, "regular_short", "trace",
                               lambda raw: raw["grid"].update(t1=4.01))
    assert code == 2
    assert (err["error"], err["stage"]) == ("ConfigError", "parse")
    assert err["message"].startswith("grid.t1:")


def test_single_node_grid_is_a_config_error_for_interval_modes(tmp_path, capsys):
    code, [err] = _run_variant(tmp_path, capsys, "regular_short", "trace",
                               lambda raw: raw["grid"].update(steps=1))
    assert code == 2
    assert (err["error"], err["stage"]) == ("ConfigError", "parse")
    assert err["message"].startswith("grid.steps:")


# 10**30 used to end in a ValueError traceback from np.linspace (exit 1); the
# cap refuses a grid before any of it is allocated
@pytest.mark.parametrize("steps", [10**30, cli.STEPS_MAX + 1], ids=["1e30", "cap+1"])
def test_grid_steps_above_the_cap_are_a_config_error(tmp_path, capsys, steps):
    code, [err] = _run_variant(tmp_path, capsys, "regular_short", "trace",
                               lambda raw: raw["grid"].update(steps=steps))
    assert code == 2
    assert (err["error"], err["stage"]) == ("ConfigError", "parse")
    assert err["message"] == f"grid.steps: must not exceed {cli.STEPS_MAX}"


def test_batch_out_naming_a_regular_file_is_an_io_error(tmp_path, capsys):
    # creating the output directory used to raise FileExistsError outside
    # the error taxonomy: a traceback and exit 1
    taken = tmp_path / "taken"
    taken.write_text("kept")
    assert main(["classify", str(SCENARIO), "--batch", "--out", str(taken)]) == 4
    [err] = _errors(capsys)
    assert (err["code"], err["error"], err["stage"]) == (4, "FileExistsError", "emit")
    assert taken.read_text() == "kept"


def test_outputs_default_to_the_scenario_directory(tmp_path, monkeypatch):
    # without --out, a single run writes <stem>.out.<format> next to its
    # scenario, and a batch run writes each output next to its own scenario
    # (a name without a suffix is its own stem)
    one, two, cwd = tmp_path / "one", tmp_path / "two", tmp_path / "cwd"
    for directory in (one, two, cwd):
        directory.mkdir()
    for path in (one / "a.json", two / "b.json", two / "c"):
        shutil.copy(GOLDEN / "portrait_short.json", path)
    monkeypatch.chdir(cwd)
    assert main(["portrait", str(one / "a.json")]) == 0
    assert (one / "a.out.csv").read_bytes() == (GOLDEN / "portrait_short.csv").read_bytes()
    assert main(["portrait", str(one / "a.json"), str(two / "b.json"), str(two / "c"),
                 "--batch", "--format", "json"]) == 0
    assert sorted(p.name for p in one.iterdir()) == [
        "a.json", "a.out.csv", "a.out.csv.columns", "a.out.csv.summary.json", "a.out.json"]
    assert sorted(p.name for p in two.iterdir()) == ["b.json", "b.out.json", "c", "c.out.json"]
    assert (two / "b.out.json").read_bytes() == (one / "a.out.json").read_bytes()
    assert list(cwd.iterdir()) == []


def _two_pieces(raw):
    # a second piece on [0.5, 1] with another X; the continuation never reads it
    raw["data"] = {
        "breakpoints": [-1, 0.5, 1],
        "b": [[0, 0, 0, -1], [-0.125, -0.75, -1.5, -1]],
        "x": [[[1], [0], [0, 1], [0, 0, 0.5]], [[1], [1], [0, 1], [0, 0, 0.5]]],
    }


# both used to exit 0: the trace ran on past the piece of the data at 0
@pytest.mark.parametrize("edit", [lambda raw: raw["grid"].update(t1=5), _two_pieces],
                         ids=["t1-past-breakpoints", "t1-past-first-piece"])
def test_degeneracy_grid_past_the_data_piece_at_zero_is_a_config_error(tmp_path, capsys, edit):
    code, [err] = _run_variant(tmp_path, capsys, "degen_m3_short", "trace", edit)
    assert code == 2
    assert (err["error"], err["stage"]) == ("ConfigError", "parse")
    assert err["message"].startswith("grid.t1:")


# a cubic X whose frame series has its order-39 coefficient at norm 1.8e9
# (root-test radius about 0.58)
WIDE_X = [[2.0409, -2.5557, 0.4181, -0.5678],
          [-0.4526, -0.2156, -2.02, -0.2319],
          [-0.8652, 3.323, 0.2258, -0.3526],
          [-0.2813, -0.668, -1.0552, -0.3908]]


def _frames(out: Path, n: int = 2) -> tuple[np.ndarray, np.ndarray]:
    """Times and frames of the rows of a trace CSV."""
    rows = np.array([[float(v) for v in line.split(",")[: 1 + 2 * n * n]]
                     for line in out.read_text().splitlines()[1:]])
    return rows[:, 0], rows[:, 1:].reshape(-1, 2 * n, n)


# the series window ends at 0.0262: after the first node, or before the grid
@pytest.mark.parametrize("t0", [0.01, 0.05])
def test_trace_past_the_normal_form_radius_is_handed_over(tmp_path, t0):
    # the series is not summed at t1 = 1, so this trace used to be refused
    # (before that, it spent more than 20 s in the first-jet transport); past
    # the series window it is one march of the original data
    raw = json.loads(SCENARIO.read_text())
    raw["grid"] = {"t0": t0, "t1": 1, "steps": 20}
    raw["data"]["b"] = [[0, 0, -1]]
    raw["data"]["x"] = [WIDE_X]
    path = tmp_path / "s.json"
    path.write_text(json.dumps(raw))
    out = tmp_path / "o.csv"
    start = time.perf_counter()
    assert main(["trace", str(path), "--out", str(out)]) == 0
    assert time.perf_counter() - start < 2.0
    times, frames = _frames(out)
    assert times[-1] == 1.0
    # an independent march of mu' = X sigma(X, mu) / b from the first row
    coeffs = np.array(WIDE_X)

    def jacobi(t, y):
        x = np.polynomial.polynomial.polyval(t, coeffs.T)
        mu = y.reshape(4, 2)
        return (np.outer(x, x[:2] @ mu[2:] - x[2:] @ mu[:2]) / -t**2).ravel()

    sol = solve_ivp(jacobi, (times[0], times[-1]), frames[0].ravel(), method="DOP853",
                    rtol=1e-13, atol=1e-20, t_eval=times)
    series_start = json.loads(Path(f"{out}.summary.json").read_text())["series_start"]
    tail = times > series_start
    assert tail.sum() == (19 if t0 < series_start else 20)
    gaps = plane_distance(frames[tail], sol.y.T.reshape(-1, 4, 2)[tail])
    assert np.max(gaps) < 1e-10


def _order0_march(data: PiecewiseAnalytic, t0: float, plane: np.ndarray):
    """The order-0 Jacobi march mu' = X sigma(X, mu) / b of one-piece n = 2
    data from ``plane`` at ``t0``, in mpmath at its working precision, as a
    map from a time to the (4, 2) frame there."""
    xs = [[mpmath.mpf(float(c)) for c in row] for row in data.x_pieces[0]]
    bs = [mpmath.mpf(float(c)) for c in data.b_pieces[0]]

    def jacobi(t, y):
        x = [mpmath.polyval(row[::-1], t) for row in xs]
        b = mpmath.polyval(bs[::-1], t)
        out = []
        for mu in (y[:4], y[4:]):
            s = x[0] * mu[2] + x[1] * mu[3] - x[2] * mu[0] - x[3] * mu[1]
            out += [xi * s / b for xi in x]
        return out

    start = [mpmath.mpf(float(v)) for v in np.asarray(plane).T.ravel()]
    march = mpmath.odefun(jacobi, mpmath.mpf(float(t0)), start)
    return lambda t: np.array([float(v) for v in march(mpmath.mpf(float(t)))]).reshape(2, 4).T


def test_corpus_degen_m2_plane_matches_a_30_digit_march(monkeypatch):
    # at t = 0.776 the normal-form route's planes had entries of 5.8e4, and
    # its canonicalisation put the emitted plane 1.25e-13 from this march
    handed = {}

    def recorded(data, l_init, grid, *a):
        handed.update(plane=l_init, t_h=grid[0])
        return engine._jacobi_curve(data, l_init, grid, *a)

    monkeypatch.setattr(cli, "_jacobi_curve", recorded)
    config = cli.parse_scenario(CORPUS / "degen_m2.json")
    rows = cli.run(config, "trace").rows
    k = int(np.argmin(np.abs(config.grid - 0.7761)))
    with mpmath.workdps(30):
        march = _order0_march(config.data["piecewise"], handed["t_h"], handed["plane"])
        ref = march(config.grid[k])
    assert handed["t_h"] == 0.1
    assert plane_distance(np.reshape(rows[k][1:9], (4, 2)), ref) < 1e-14


def test_corpus_regular_trace_matches_a_30_digit_march():
    # every third node of the order-0 march of the corpus regular scenario
    config = cli.parse_scenario(CORPUS / "regular.json")
    rows = cli.run(config, "trace").rows
    with mpmath.workdps(30):
        march = _order0_march(config.data["piecewise"], config.grid[0], config.initial_plane)
        gaps = [plane_distance(np.reshape(rows[k][1:9], (4, 2)), march(config.grid[k]))
                for k in range(0, config.grid.size, 3)]
    assert len(gaps) == 67 and max(gaps) < 3e-14


def test_epsilon_family_landing_past_the_normal_form_radius_is_refused(tmp_path, capsys):
    # order 3: the plane is handed over at grid.t0, and the frame series
    # with this X is not summed at 0.4
    def edit(raw):
        raw["grid"] = {"t0": 0.4, "t1": 1, "steps": 20}
        raw["data"]["x"] = [WIDE_X]

    start = time.perf_counter()
    code, [err] = _run_variant(tmp_path, capsys, "degen_m3_short", "trace", edit)
    assert time.perf_counter() - start < 2.0
    assert code == 3
    assert (err["error"], err["stage"]) == ("RadiusError", "run")
    assert err["message"].startswith("handover time 0.4 ")


@pytest.mark.parametrize("scenario", ["degen_m2_short", "degen_m3_short"])
def test_single_node_degeneracy_trace_is_handed_over_at_its_node(tmp_path, scenario):
    raw = json.loads((GOLDEN / f"{scenario}.json").read_text())
    raw["grid"]["steps"] = 1
    path = tmp_path / "s.json"
    path.write_text(json.dumps(raw))
    out = tmp_path / "o.csv"
    assert main(["trace", str(path), "--out", str(out)]) == 0
    times, _ = _frames(out)
    assert times.tolist() == [raw["grid"]["t0"]]


@pytest.mark.parametrize("name", ["degen_m1", "degen_m2", "degen_m3"])
def test_no_trace_evaluates_the_frame_past_the_handover(tmp_path, monkeypatch, name):
    taus = []

    def recorded(a, tau):
        taus.extend(np.atleast_1d(tau).tolist())
        return meval(a, tau)

    monkeypatch.setattr(cli, "meval", recorded)
    raw = json.loads((CORPUS / f"{name}.json").read_text())
    raw["tolerances"] = {"eps_family": [1e-3]}
    path = tmp_path / "s.json"
    path.write_text(json.dumps(raw))
    out = tmp_path / "o.csv"
    assert main(["trace", str(path), "--out", str(out)]) == 0
    summary = json.loads(Path(f"{out}.summary.json").read_text())
    grid = raw["grid"]
    t_h = grid["t0"] if summary["m"] >= 3 else min(summary["series_start"], grid["t1"])
    assert max(taus) == t_h
    if summary["m"] >= 3:
        # M(0), the frame's first coefficient, gives the normal-form
        # coordinates, the family marches the data's own system from M(eps) L0,
        # and M(t_h) maps its members back to normal-form coordinates: nothing else
        assert taus == [1e-3, t_h]
    assert len(_frames(out)[0]) == grid["steps"]


def test_grid_width_overflow_is_one_config_error(tmp_path):
    # np.linspace used to warn on stderr ahead of the error object
    raw = json.loads((GOLDEN / "regular_short.json").read_text())
    raw["grid"].update(t0=-1e308, t1=1e308)
    path = tmp_path / "s.json"
    path.write_text(json.dumps(raw))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-m", "jacobiflow.cli", "trace", str(path),
                           "--out", str(tmp_path / "o.csv")],
                          env=env, capture_output=True, text=True)
    assert done.returncode == 2
    [line] = done.stderr.splitlines()
    err = json.loads(line)
    assert (err["error"], err["stage"]) == ("ConfigError", "parse")
    assert err["message"].startswith("grid.t1:")


def test_imax_is_an_unknown_tolerance(tmp_path, capsys):
    # the order search always runs up to min(2n + 2, D_MAX - 1)
    code, [err] = _run_variant(tmp_path, capsys, "degen_m3_short", "trace",
                               lambda raw: raw.update(tolerances={"imax": 4}))
    assert (code, err["message"]) == (2, "tolerances.imax: unknown field")
    assert main(["trace", str(SCENARIO), "--out", str(tmp_path / "o.csv"),
                 "--tol-overrides", '{"imax": 4}']) == 2
    [err] = _errors(capsys)
    assert err["message"] == "tolerances.imax: unknown field"


# b = -(t - c)^2 touches zero at c and 1e-8 - (t - c)^2 turns positive
# around it, both between the nodes; a sign test on samples missed them, and
# the march stalled at c (after 6.2 s and 0.76 s) into a PoleError
@pytest.mark.parametrize("lift", [0.0, 1e-8], ids=["double-root", "positive"])
def test_weight_touching_zero_is_refused_before_the_march(tmp_path, capsys, monkeypatch, lift):
    c = 0.1234567

    def edit(raw):
        raw["data"].update(breakpoints=[0, 1], b=[[lift - c * c, 2 * c, -1]])
        raw["grid"] = {"t0": 0, "t1": 1, "steps": 50}

    def no_march(*args, **kwargs):
        raise AssertionError("the march started")

    monkeypatch.setattr(engine, "_integrate", no_march)
    code, [err] = _run_variant(tmp_path, capsys, "regular_short", "trace", edit)
    assert code == 3
    assert (err["error"], err["stage"]) == ("PreconditionError", "run")
    assert err["message"].startswith(f"b^0 = {lift:.3g} at t = 0.123457: ")


def test_overflowing_coefficients_are_not_called_a_pole(tmp_path, capsys):
    # b = -1 never vanishes; the system overflows on the way to t = 1e200
    def edit(raw):
        raw["data"]["breakpoints"] = [0, 1e200]
        raw["grid"]["t1"] = 1e200

    code, [err] = _run_variant(tmp_path, capsys, "regular_short", "trace", edit)
    assert code == 3
    assert (err["error"], err["stage"]) == ("PreconditionError", "run")
    assert err["message"].startswith("the coefficients overflow near t = 0")
    assert "pole" not in err["message"]


def test_an_overflowing_legendre_sequence_is_one_error_object(tmp_path, capsys):
    # b = 0 and X of size 1e200: b^1 = sigma(X', X) and its zero-test scale
    # overflow, and the order cannot be decided
    def edit(raw):
        raw["mode"] = "singular_order_m"
        raw["data"]["b"] = [[0.0]]
        raw["data"]["x"] = [[[1e200 * v for v in row] for row in raw["data"]["x"][0]]]

    code, [err] = _run_variant(tmp_path, capsys, "regular_short", "trace", edit)
    assert code == 3
    assert (err["error"], err["stage"]) == ("PreconditionError", "run")
    assert err["message"].startswith("b^1 overflows")


# X = (1, 0, t, t^2/2) of the golden degeneracy scenarios
GOLDEN_X = np.array([[1, 0, 0, 0], [0, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0.5, 0]], dtype=float)


def _normal_form_route(config: cli.ScenarioConfig, frame, order: int) -> np.ndarray:
    """The planes of a degeneracy trace as the normal-form route computes them
    on ``frame``: the plane moved to grid.t1 in normal-form coordinates (the
    first-jet window the trace solves and a march from its end for m <= 2,
    the epsilon family and a march over the grid for m >= 3), then mapped
    through the frame M(t), summed at ``order`` orders, at every node."""
    grid = config.grid
    l0 = canonicalize(symplectic_inverse(meval(frame.frame, 0.0)) @ config.initial_plane)
    if frame.coeffs.m <= 2:
        _, planes = continued(frame.coeffs, jet_case(l0), grid, nterms=len(frame.frame),
                              least=frame.orders[0])
    else:
        eps = [e for e in config.tolerances["eps_family"] if e < grid[0]]
        start = epsilon_family_oracle(frame.coeffs.system, l0, float(grid[0]), eps)[-1]
        planes = flow_plane(frame.coeffs.system, start, grid).planes
    return canonicalize(meval(frame.frame[:order], grid) @ planes)


def _summed_order(frame, t: float) -> int | None:
    """The trace's rule for the order of the frame series summed up to ``t``:
    the smallest admissible order whose tail passes at ``t``, if any."""
    norms = np.linalg.norm(frame.frame, axis=(1, 2))
    return next((n for n in frame.orders if _tail_within(norms[:n], t)), None)


def _dx(entries: dict) -> list[float]:
    """A perturbation of GOLDEN_X, flattened: ``entries`` maps an index to its value."""
    return [entries.get(i, 0.0) for i in range(16)]


def _cubic(dx, m: int, t1: float, seed: int, eps_family, *, t0: float = 0.01,
           **tolerances) -> cli.ScenarioConfig:
    """The degeneracy trace of b = -t^m and X = GOLDEN_X + dx from a random plane
    over 12 nodes from ``t0`` to ``t1``."""
    data = PiecewiseAnalytic(breakpoints=[-1.0, 1.0], b_pieces=[[0.0] * m + [-1.0]],
                             x_pieces=[GOLDEN_X + np.reshape(dx, (4, 4))])
    return cli.ScenarioConfig(
        n=2, mode="legendre_degeneracy", data={"piecewise": data},
        initial_plane=random_lagrangian(np.random.default_rng(seed), 2),
        grid=np.linspace(t0, t1, 12),
        tolerances=dict(cli.DEFAULT_TOLERANCES, eps_family=eps_family, **tolerances), seed=0)


def _planes(rows) -> np.ndarray:
    return np.array([row[1:9] for row in rows]).reshape(-1, 4, 2)


# X1 and X2 carry rounding in the top orders of their 40-order frames, which
# the residual checks refuse there (a diagonal block of 1.6e-8, a symplectic
# residual of 2.5e-5); the checks pass up to 36 and 30 orders
X1 = _dx({5: 0.25, 15: 0.25})
X2 = _dx({14: -0.25, 15: 0.1875})
# a frame whose checks pass at 20 and 21 orders only: its blown-up series does
# not reach START_MAX at 21 orders.  While a short series rebuilt the frame at
# the cap for a trace alone, which refused it, classify and jump exited 0 and
# the trace exited 3
SHORT = _dx({0: -0.25, 1: -0.25, 2: 0.25, 3: 0.25, 5: 0.25, 6: 0.25, 7: -0.25, 9: 0.25,
             10: -0.25, 11: 0.25, 13: -0.25, 14: -0.25, 15: -0.25})


@settings(max_examples=20, deadline=None)
@given(st.lists(st.floats(-0.25, 0.25), min_size=16, max_size=16),
       st.sampled_from([2, 3]), st.floats(0.05, 0.5), st.integers(0, 2**32 - 1),
       st.sampled_from([(1e-3,), (1e-3, 1e-4)]))
# X1 and X2 up to 0.5, where the route sums 22 and 20 orders of their
# frames, and SHORT up to 0.2, where its 20 orders pass: the frame keeps the
# orders whose checks pass, so each reaches the agreement assertion
@example(X1, 2, 0.5, 0, (1e-3,))
@example(X1, 3, 0.5, 0, (1e-3,))
@example(X2, 3, 0.5, 0, (1e-3,))
@example(SHORT, 2, 0.2, 3, (1e-3,))
# an order-3 family of two members: the second joins the stack at 1e-3
@example(_dx({}), 3, 0.5, 0, (1e-3, 1e-4))
def test_handover_trace_agrees_with_the_normal_form_route(dx, m, t1, seed, eps_family):
    # random cubic X around the golden one, where the frame series is summed
    # up to t1: there both routes hold, and the handover changes the planes
    # by the transport error only.  The route takes the one frame the trace
    # builds and sums it at the order the trace's rule picks for t1, the
    # largest time the route sums it at.  For m = 3 the trace marches the
    # epsilon family on the data's own system and the normal-form route on
    # the block system, so the two families are independent
    config = _cubic(dx, m, t1, seed, eps_family)
    try:
        frame = build_normal_frame(config.data["piecewise"], nterms=config.tolerances["nterms"])
    except JacobiflowError as exc:
        # an X the normal form refuses: the trace refuses it the same way
        with pytest.raises(JacobiflowError) as refused:
            cli.run(config, "trace")
        assert type(refused.value) is type(exc)
        assume(False)
    order = _summed_order(frame, t1)
    assume(order is not None)
    planes = _planes(cli.run(config, "trace").rows)
    assert np.max(plane_distance(planes, _normal_form_route(config, frame, order))) < 1e-9


@pytest.mark.parametrize("dx, order", [(X1, 22), (X2, 20)])
def test_an_order_3_grid_from_one_half_sums_the_lowest_order_that_passes(dx, order):
    # over a grid from 0.5 the frame is summed at 0.5: X1's 20 orders fail the
    # tail test there and its 40 are refused, so it exited 3 while two build
    # orders were tried; 22 orders pass.  X2's checks fail above 30 orders
    # and its tail fails at 22, so it runs at 20, the lowest admissible order.
    # The route sums the frame at that order up to 0.6, where it is within
    # 6e-11 of all the orders the frame keeps
    config = _cubic(dx, 3, 0.6, 0, (1e-3, 1e-4), t0=0.5)
    frame, summed, _, _ = cli._local_frame(config)
    assert summed == order
    planes = _planes(cli.run(config, "trace").rows)
    assert np.max(plane_distance(planes, _normal_form_route(config, frame, order))) < 1e-9


@settings(max_examples=20, deadline=None)
@given(st.lists(st.floats(-0.25, 0.25), min_size=16, max_size=16),
       st.sampled_from([1, 2, 3]), st.floats(0.05, 0.5), st.integers(0, 2**32 - 1))
@example(SHORT, 1, 0.5, 3)
@example(X1, 3, 0.5, 0)
def test_classify_jump_and_trace_refuse_alike(dx, m, t1, seed):
    # every verb reads the one frame of the singular instant, so a config is
    # refused by all of them or by none, with one error class; only a trace
    # sums the frame series over the grid, so only a trace refuses its radius
    config = _cubic(dx, m, t1, seed, (1e-3,))

    def refusal(verb):
        try:
            cli.run(config, verb)
        except JacobiflowError as exc:
            return type(exc)
        return None

    classify, jump, trace = map(refusal, ("classify", "jump", "trace"))
    assert jump is classify
    assert trace is classify or (classify is None and trace is RadiusError)


@pytest.mark.parametrize("c, tolerances, refusal", [
    # p = c11(0)/b_m = -1/c at b = c t^2: 5e-7, 4e-7 and 3.3e-7 lie outside
    # the classifier's band |p| <= tol_thresh/4 at p = 0, but inside the band
    # |delta - 1| <= 1e-6 of the continuation's own rule, which had the trace
    # raise ResonanceError where classify and jump exited 0
    (-2e6, {}, None), (-2.5e6, {}, None), (-3e6, {}, None),
    # p = 2.5e-7 and 2e-7 lie inside the band of both rules
    (-4e6, {}, "UndecidedError"), (-5e6, {}, "UndecidedError"),
    # the scenario's tol_thresh widens the band for every verb, and narrows it:
    # at p = 1e-8 the continuation's fixed 1e-6 refused the trace
    (-2.5e6, {"tol_thresh": 1e-5}, "UndecidedError"),
    (-1e8, {"tol_thresh": 1e-9}, None),
])
def test_order_two_exponents_are_decided_by_the_classifier_alone(tmp_path, capsys, c,
                                                                  tolerances, refusal):
    # the corpus degen_m2 data with b = c t^2: classify reports the verdict,
    # and jump and trace refuse a Threshold verdict alike at the scenario's
    # tolerance, or both run
    raw = json.loads((CORPUS / "degen_m2.json").read_text())
    raw["data"]["b"] = [[0, 0, c]]
    raw["tolerances"] = tolerances
    path = tmp_path / "s.json"
    path.write_text(json.dumps(raw))
    outcomes = {}
    for verb in ("classify", "jump", "trace"):
        code = main([verb, str(path), "--out", str(tmp_path / f"{verb}.csv")])
        outcomes[verb] = code, [err["error"] for err in _errors(capsys)]
    assert outcomes["classify"] == (0, [])
    refused = (0, []) if refusal is None else (3, [refusal])
    assert outcomes["jump"] == outcomes["trace"] == refused


@pytest.mark.parametrize("name, plane, start", [
    ("degen_m2", [[1, 0], [0, 1], [0.652568, 0.51327], [0.51327, 0.348148]], 0.0262144),
    ("degen_m1", [[1, 0], [0, 1], [0.383513, -0.46916], [-0.46916, 0.459841]], 0.0512),
])
def test_a_short_window_solves_the_blown_up_series_to_the_frame_length(monkeypatch, name,
                                                                       plane, start):
    # start planes of the seed-0 jet round (degen_m2_v12, degen_m1_v18) whose
    # blown-up series ends below START_MAX at every length from the lowest
    # admissible order, 20, on: it is solved to all 40 orders of the frame,
    # whose series_start the trace reads, as it did when every trace used the cap
    config = cli.parse_scenario(CORPUS / f"{name}.json")
    config.initial_plane = np.array(plane, dtype=float)
    windows, continuation = [], cli.first_jet_continuation

    def recorded(*args, **kwargs):
        windows.append(continuation(*args, **kwargs))
        return windows[-1]

    monkeypatch.setattr(cli, "first_jet_continuation", recorded)
    assert cli.run(config, "trace").summary["series_start"] == pytest.approx(start, rel=1e-12)
    assert windows[0].diagnostics["series_order"] == 40
    config.tolerances["nterms"] = 20
    assert cli.run(config, "trace").summary["series_start"] < 0.8 * start


@pytest.mark.parametrize("verb, b, top", [
    # m = 3 and X + t^21 e_1: the frame is summed at grid.t0 = 0.5, where
    # the order 21 of X moves M(t) by 1e-4, and with it the distances
    # between the family's members in normal-form coordinates
    ("trace", [0.0, 0.0, 0.0, -1.0], 1.0),
    # b = -1e-13 t - t^21 vanishes to order 21 on the scale of its largest
    # coefficient; cut to 20 orders, it would read order 1
    ("classify", [0.0, -1e-13] + [0.0] * 19 + [-1.0], 0.0),
])
def test_data_past_half_the_cap_are_read_at_the_cap(monkeypatch, verb, b, top):
    # data with a coefficient of order nterms // 2 or above: the frame is
    # built from all of them, and no order below one past their degree is
    # admissible, so no sum cuts them off
    x = np.zeros((4, 22))
    x[:, :4] = GOLDEN_X
    x[0, 21] = top
    config = cli.ScenarioConfig(
        n=2, mode="legendre_degeneracy",
        data={"piecewise": PiecewiseAnalytic(breakpoints=[-1.0, 1.0], b_pieces=[b],
                                             x_pieces=[x])},
        initial_plane=np.array([[1, 0], [0, 1], [0.3, 0.2], [0.2, -0.5]], dtype=float),
        grid=np.linspace(0.5, 0.9, 5),
        tolerances=dict(cli.DEFAULT_TOLERANCES, eps_family=(1e-3, 1e-4)), seed=0)
    frame, order, _, summary = cli._local_frame(config)
    assert frame.orders[0] == 22 and order >= 22
    if verb == "classify":
        assert summary["m"] == 21
        return
    # the frame has no orders above 23, so its sum at N is its sum at P, all
    # the orders it keeps: a trace that must sum all of them reads the same
    # rows and the same summary
    assert summary["m"] == 3
    out, build = cli.run(config, "trace"), cli.build_normal_frame
    monkeypatch.setattr(cli, "build_normal_frame", lambda data, nterms: dataclasses.replace(
        build(data, nterms=nterms), orders=(len(frame.frame),)))
    at_p = cli.run(config, "trace")
    assert out.rows == at_p.rows
    assert ({k: v for k, v in out.summary.items() if k != "events"}
            == {k: v for k, v in at_p.summary.items() if k != "events"})
# order-3 X with X(0) off the coordinate axes, on which the handover test
# above failed while the family marched in the data's coordinates: its steps
# of size up to 1e6 next to the pole moved every coordinate by their
# rounding, and the trace was 1.01e-9 to 2.58e-9 from the same trace at the
# rtol floor.  Marched in the coordinates of the normal frame at 0 it is
# within 6.8e-13 of it
@pytest.mark.parametrize("dx, seed", [
    (_dx({4: 0.125, 5: 0.25, 6: 0.25, 8: 0.25}), 0),
    (_dx({4: 0.25, 6: 0.25, 12: 0.1875}), 0),
    (_dx({8: -0.25, 12: 0.25}), 7),
    (_dx({1: 0.25, 4: 0.25, 9: 0.125, 12: -0.25}), 0),
    (_dx({3: 0.25, 4: 0.25, 9: 0.25, 10: 0.25, 11: 0.0625, 12: 0.25, 15: 0.09375}), 0),
])
def test_order_3_trace_is_near_its_rtol_floor_march(dx, seed):
    def planes(**tolerances):
        rows = cli.run(_cubic(dx, 3, 0.5, seed, (1e-3, 1e-4), **tolerances), "trace").rows
        return np.array([row[1:9] for row in rows]).reshape(-1, 4, 2)

    assert np.max(plane_distance(planes(), planes(rtol=flows._RTOL_MIN))) < 1e-9


@pytest.mark.parametrize("scenario, verb", [
    ("regular_short", "trace"), ("bangbang_short", "bangbang"), ("degen_m3_short", "jump"),
])
def test_non_lagrangian_initial_plane_is_a_config_error(tmp_path, capsys, scenario, verb):
    # independent columns, but sigma(l_1, l_2) = 0.2 - 0.1 != 0
    def edit(raw):
        raw["initial_plane"] = [[1, 0], [0, 1], [0.3, 0.2], [0.1, -0.5]]

    code, [err] = _run_variant(tmp_path, capsys, scenario, verb, edit)
    assert code == 2
    assert (err["error"], err["stage"]) == ("ConfigError", "parse")
    assert err["message"].startswith("initial_plane:")


def _record_boundary_checks(monkeypatch) -> dict:
    """From now on, record each ``validate_lagrangian`` call, by whether it
    runs inside ``parse_scenario``, and the window of each
    ``legendre_sequence`` call, in every jacobiflow module that binds them."""
    seen = {"parse": 0, "run": 0, "windows": []}
    parsing = []
    validate, sequence, parse = (grassmann.validate_lagrangian, engine.legendre_sequence,
                                 cli.parse_scenario)

    def validating(f, *a):
        seen["parse" if parsing else "run"] += 1
        return validate(f, *a)

    def windowed(data, interval):
        seen["windows"].append((id(data), tuple(map(float, interval))))
        return sequence(data, interval)

    def parsed(path):
        parsing.append(1)
        try:
            return parse(path)
        finally:
            parsing.pop()

    for key, fn, wrapped in (("validate_lagrangian", validate, validating),
                             ("legendre_sequence", sequence, windowed)):
        for module in list(sys.modules.values()):
            if module.__name__.startswith("jacobiflow") and getattr(module, key, None) is fn:
                monkeypatch.setattr(module, key, wrapped)
    monkeypatch.setattr(cli, "parse_scenario", parsed)
    return seen


def _one_round_ops(directory: Path, workload: str) -> list[list[str]]:
    sys.path.insert(0, str(CORPUS.parent))
    try:
        import scenarios
    finally:
        sys.path.remove(str(CORPUS.parent))
    return [[op.verb, str(directory / f"{op.scenario}.json")]
            for op in scenarios.write_scenarios(workload, 0, scenarios.blocks_for(workload, 30),
                                                directory)]


@pytest.mark.parametrize("workload, plane_checks, windows", [
    ("golden", None, None), ("curve", 37, 36), ("pole", None, None), ("jet", 54, None)])
def test_each_input_is_checked_once_at_the_boundary(tmp_path, monkeypatch, workload,
                                                      plane_checks, windows):
    # a plane from outside is validated once per op, by parse_scenario, and
    # never again by run; each window gets one Legendre sequence per op (a
    # degeneracy trace has two windows: the data's and the one past t_h)
    if workload == "golden":
        ops = [[verb, str(p)] for p in sorted(GOLDEN.glob("*.json"))
               if not p.name.endswith(".summary.json") for verb in cli.VERBS]
    else:
        ops = _one_round_ops(tmp_path, workload)
    seen = _record_boundary_checks(monkeypatch)
    totals = {"parse": 0, "windows": 0}
    with contextlib.redirect_stderr(io.StringIO()):
        for argv in ops:
            seen.update(parse=0, run=0, windows=[])
            main(argv + ["--out", str(tmp_path / "o.csv")])
            planes = json.loads(Path(argv[1]).read_text())["mode"] != "portrait"
            assert seen["parse"] == planes and seen["run"] == 0, argv
            assert len(set(seen["windows"])) == len(seen["windows"]), argv
            totals["parse"] += seen["parse"]
            totals["windows"] += len(seen["windows"])
    if plane_checks is not None:
        assert totals["parse"] == plane_checks
    if windows is not None:
        assert totals["windows"] == windows


#: malformed scenario bytes that once escaped the error taxonomy as tracebacks
MALFORMED = {
    "not-utf8": b'{"n": 1\xff}',
    "deep": b"[" * 100_000 + b"]" * 100_000,
    "digits": b'{"n": ' + b"1" * 5000 + b"}",
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_scenario_bytes_are_config_errors(tmp_path, capsys, name):
    path = tmp_path / "s.json"
    path.write_bytes(MALFORMED[name])
    assert main(["trace", str(path), "--out", str(tmp_path / "o.csv")]) == 2
    [err] = _errors(capsys)
    assert (err["error"], err["stage"]) == ("ConfigError", "parse")
    assert err["message"].startswith("scenario: invalid JSON: ")


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_tol_overrides_are_config_errors(tmp_path, capsys, name):
    # argv holds text: bytes that are not UTF-8 arrive surrogate-escaped
    text = MALFORMED[name].decode("utf-8", "surrogateescape")
    code = main(["trace", str(SCENARIO), "--out", str(tmp_path / "o.csv"),
                 "--tol-overrides", text])
    assert code == 2
    [err] = _errors(capsys)
    assert (err["error"], err["stage"]) == ("ConfigError", "parse")
    assert err["message"].startswith("--tol-overrides: invalid JSON: ")


@st.composite
def _mutated_scenario(draw):
    """The bytes of a corpus scenario cut short, with bytes flipped, or nested deep."""
    data = draw(st.sampled_from(sorted(CORPUS.glob("*.json")))).read_bytes()
    kind = draw(st.sampled_from(("cut", "flip", "nest")))
    if kind == "cut":
        return data[: draw(st.integers(0, len(data)))]
    if kind == "nest":
        depth = draw(st.integers(1, 5000))
        return b"[" * depth + data + b"]" * depth
    out = bytearray(data)
    for _ in range(draw(st.integers(1, 4))):
        out[draw(st.integers(0, len(out) - 1))] = draw(st.integers(0, 255))
    return bytes(out)


@settings(max_examples=40, deadline=None)
@given(_mutated_scenario())
@example(MALFORMED["not-utf8"])
@example(MALFORMED["deep"])
@example(MALFORMED["digits"])
def test_main_routes_any_scenario_bytes_through_the_taxonomy(tmp_path_factory, raw):
    # classify runs the parser on every mode and computes only the cheap
    # normal frame, so a mutation that parses cannot start a long march
    path = tmp_path_factory.mktemp("mutated") / "s.json"
    path.write_bytes(raw)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["classify", str(path), "--out", str(path.with_suffix(".csv"))])
    assert code in (0, 2, 3, 4)
    lines = err.getvalue().splitlines()
    assert len(lines) == (code != 0)
    for line in lines:
        assert set(json.loads(line)) == {"code", "stage", "error", "message", "scenario"}
