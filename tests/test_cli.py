"""Exit codes and byte-stable outputs of the command line front end."""

import json
import shutil
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jacobiflow.cli import _trace_rows, main
from jacobiflow.engine import JumpEvent
from jacobiflow.grassmann import GrassmannCurve, horizontal_plane

GOLDEN = Path(__file__).resolve().parent / "golden"
CORPUS = Path(__file__).resolve().parents[1] / "perfbench" / "corpus"
SCENARIO = GOLDEN / "degen_m3_short.json"

# each entry slipped past the --tol-overrides path before it shared the
# scenario validator: the first two ran to exit 0, the last two exited 3
BAD_TOLERANCES = [
    {"rtol": -1},
    {"nterms": 500},
    {"nterms": 2},
    {"eps_family": [-1]},
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


def test_regular_mode_uses_the_scenario_rtol(tmp_path):
    # a loose rtol reaches the transport, from the scenario or the override
    raw = json.loads((GOLDEN / "regular_short.json").read_text())
    raw["tolerances"] = {"rtol": 1e-8}
    loose = tmp_path / "loose.json"
    loose.write_text(json.dumps(raw))
    runs = {
        "default": [str(GOLDEN / "regular_short.json")],
        "override": [str(GOLDEN / "regular_short.json"), "--tol-overrides", '{"rtol": 1e-8}'],
        "scenario": [str(loose)],
    }
    csv = {}
    for name, args in runs.items():
        assert main(["trace", *args, "--out", str(tmp_path / f"{name}.csv")]) == 0
        csv[name] = (tmp_path / f"{name}.csv").read_bytes()
    assert csv["override"] == csv["scenario"] != csv["default"]


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(-40, 40), min_size=1, max_size=30, unique=True),
       st.lists(st.tuples(st.integers(-40, 40), st.sampled_from([0.0, 5e-10, -2e-9, 1e-3])),
                max_size=8),
       st.sampled_from([1.0, 1e3]))
@example([3], [(3, -2e-9)], 1e3)  # the jump lies just below the row: its left neighbour
@example([3], [(1, 0.0), (3, 5e-10)], 1.0)  # just above: its right neighbour
def test_jump_rows_match_the_scan_over_every_jump(steps, jumps, scale):
    # the scan over every jump time that the two-neighbour search replaced
    times = scale * np.sort(np.array(steps, dtype=float))
    jump_times = [scale * (k + d) for k, d in jumps]
    plane = horizontal_plane(1)
    curve = GrassmannCurve(times=times, planes=[plane] * times.size)
    events = [JumpEvent(time=jt, pre_plane=plane, post_plane=plane, inserted=np.ones(2))
              for jt in jump_times]
    rows, _ = _trace_rows(curve, events, 1)
    scan = [int(any(abs(t - jt) <= 1e-9 * max(1.0, abs(jt)) for jt in jump_times))
            for t in times]
    assert [row[-1] for row in rows] == scan


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
