"""Exit codes and byte-stable outputs of the command line front end."""

import json
import shutil
from pathlib import Path

import pytest

from jacobiflow.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
SCENARIO = GOLDEN / "degen_m3_short.json"

# each entry slipped past the --tol-overrides path before it shared the
# scenario validator: the first two ran to exit 0, the last two exited 3
BAD_TOLERANCES = [
    {"rtol": -1},
    {"nterms": 500},
    {"nterms": 2},
    {"eps_family": [-1]},
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
    assert err["error"] == "ConfigError"


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


def test_golden_degen_m3_trace_is_byte_stable(tmp_path):
    out = tmp_path / "degen_m3_short.csv"
    assert main(["trace", str(SCENARIO), "--out", str(out)]) == 0
    for name in ("degen_m3_short.csv", "degen_m3_short.csv.summary.json"):
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name
