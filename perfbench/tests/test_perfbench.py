"""Tests of the benchmark's own machinery.

Run from the root of a source checkout::

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import scenarios  # noqa: E402
import tracer  # noqa: E402


@pytest.mark.parametrize("workload", scenarios.WORKLOADS)
def test_same_seed_writes_byte_identical_scenarios(tmp_path, workload):
    scenarios.write_scenarios(workload, 7, 2, tmp_path / "a")
    scenarios.write_scenarios(workload, 7, 2, tmp_path / "b")
    scenarios.write_scenarios(workload, 8, 2, tmp_path / "c")
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    for name in scenarios.CORPUS_SCENARIOS[workload]:
        corpus = (scenarios.CORPUS_DIR / f"{name}.json").read_bytes()
        assert (tmp_path / "a" / f"{name}.json").read_bytes() == corpus
        assert (tmp_path / "c" / f"{name}.json").read_bytes() == corpus
    variants = [n for n in names if "_v" in n]
    assert variants
    assert any((tmp_path / "a" / n).read_bytes() != (tmp_path / "c" / n).read_bytes()
               for n in variants)


def test_more_blocks_extend_the_round_without_changing_it(tmp_path):
    short = scenarios.write_scenarios("jet", 3, 1, tmp_path / "a")
    long = scenarios.write_scenarios("jet", 3, 2, tmp_path / "b")
    assert long[: len(short)] == short
    for path in (tmp_path / "a").iterdir():
        assert path.read_bytes() == (tmp_path / "b" / path.name).read_bytes()


@pytest.fixture(scope="module")
def bangbang_output(tmp_path_factory):
    """The corpus ``bangbang`` op, run once through the real CLI."""
    from jacobiflow import cli

    directory = tmp_path_factory.mktemp("bangbang")
    ops = scenarios.write_scenarios("curve", 0, 1, directory)
    op = next(o for o in ops if o.id == "bangbang.bangbang")
    [record] = run.run_round(cli, [op], directory, "t")
    scenario = json.loads((directory / "bangbang.json").read_text())
    reference = run.load_reference("curve", 5)[op.id]
    return op, record, scenario, reference


def test_checker_accepts_the_real_output(bangbang_output):
    op, record, scenario, reference = bangbang_output
    error, problems, output = checks.check_op(
        op, record["code"], record["stderr"], record["out"], scenario, reference)
    assert (record["code"], error, problems) == (0, None, [])
    assert len(output["rows"]) == len(scenario["data"]["x_list"]) + 1


def test_checker_flags_a_corrupted_csv_row(bangbang_output, tmp_path):
    op, record, scenario, reference = bangbang_output
    src = record["out"]
    out = tmp_path / src.name
    for suffix in ("", ".columns", ".summary.json"):
        (tmp_path / (src.name + suffix)).write_bytes(src.with_name(src.name + suffix).read_bytes())
    lines = out.read_text().split("\n")
    cells = lines[4].split(",")  # row 3; line 0 is the header
    cells[1:9] = ["1", "0", "0", "0", "0", "1", "0", "0"]  # frame span{e_q1, e_p1}
    lines[4] = ",".join(cells)
    out.write_text("\n".join(lines))
    _, problems, _ = checks.check_op(op, 0, "", out, scenario, reference)
    assert any("row 3: frame is not Lagrangian" in p for p in problems)
    assert any("row 3: plane distance" in p for p in problems)
    _, problems, _ = checks.check_op(op, 0, "", out, scenario, None)
    assert any("row 3: frame is not Lagrangian" in p for p in problems)


def test_checker_flags_a_wrong_exit_code(bangbang_output):
    op, record, scenario, reference = bangbang_output
    stderr = json.dumps({"code": 3, "error": "PoleError", "message": "m", "stage": "run"}) + "\n"
    error, problems, output = checks.check_op(op, 3, stderr, record["out"], scenario, reference)
    assert error == "PoleError" and output is None
    assert problems == ["exit 3 PoleError, expected 0"]
    refused = scenarios.Op("order2.maslov", "maslov", "order2", 3, "PreconditionError")
    _, problems, _ = checks.check_op(refused, 0, "", record["out"], scenario, None)
    assert problems[0] == "exit 0, expected 3 PreconditionError"


def _failed_record(op, code: int, error: str | None, out: Path) -> dict:
    stderr = "" if error is None else json.dumps({"code": code, "error": error}) + "\n"
    return {"op": op, "code": code, "stderr": stderr, "out": out}


def test_a_regressed_exit_code_makes_the_run_incorrect(bangbang_output, tmp_path):
    _, record, _, _ = bangbang_output
    directory = record["out"].parent
    corpus = {o.id: o for ops in scenarios.CORPUS_OPS.values() for o in ops}
    # a corpus op that succeeded when the references were captured now exits 3
    crashed = _failed_record(corpus["regular.trace"], 3, "MathError", record["out"])
    run.check_records([crashed], directory, run.load_reference("curve", 5))
    assert crashed["problems"] == ["exit 3 MathError, expected 0"]
    assert not crashed["met"] and crashed["wrong"]
    # an expected refusal now succeeds, with a clean output
    refused = corpus["order2.maslov"]
    assert checks.is_wrong(refused, ["exit 0, expected 3 PreconditionError"],
                           run.load_reference("curve", 5)[refused.id])
    # a variant of an uncaptured seed has no reference: failed, not wrong
    variant = scenarios.Op("regular_v00.trace", "trace", "regular")
    assert not checks.is_wrong(variant, crashed["problems"], None)

    # the corpus degen_m1 trace fails at this commit too: failed, not wrong
    scenarios.write_scenarios("jet", 5, 1, tmp_path)
    known = _failed_record(corpus["degen_m1.trace"], 3, "PoleError", tmp_path / "x.csv")
    run.check_records([known], tmp_path, run.load_reference("jet", 5))
    assert known["problems"] == ["exit 3 PoleError, expected 0"]
    assert not known["met"] and not known["wrong"]


def test_self_time_of_nested_spans():
    # op [0, 10] > a [1, 4] > b [2, 3.5];  op > c [5, 9]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.5, 9.0]
    parent = [tracer.NO_PARENT, 0, 1, 0]
    assert tracer.self_times(start, end, parent) == [3.0, 1.5, 1.5, 4.0]


def test_tracer_records_nested_calls_and_exceptions():
    t = tracer.Tracer()
    inner = t._wrap(lambda x: x + 1, t.names.index("grassmann.canonicalize"))

    def boom():
        raise ValueError("x")

    failing = t._wrap(boom, t.names.index("grassmann.to_chart"))

    def outer_fn(x):
        with pytest.raises(ValueError):
            failing()
        return inner(inner(x))

    outer = t._wrap(outer_fn, t.names.index("maslov.maslov_index"))
    assert t.call_op(0, outer, 1) == 3
    assert [t.names[k] for k in t.name] == [
        "op", "maslov.maslov_index", "grassmann.to_chart",
        "grassmann.canonicalize", "grassmann.canonicalize",
    ]
    assert t.parent == [tracer.NO_PARENT, 0, 1, 1, 1]
    summary = tracer.summarize(t)
    fn = summary["functions"]
    assert fn["grassmann.to_chart"]["errors"] == 1
    assert fn["grassmann.canonicalize"]["calls"] == 2
    own = tracer.self_times(t.start, t.end, t.parent)
    assert summary["per_op"][0]["untraced"] == pytest.approx(own[0])
    assert sum(summary["layers"].values()) + own[0] == pytest.approx(t.end[0] - t.start[0])


def test_install_patches_every_importer_and_uninstall_restores():
    from jacobiflow import cli, engine, flows
    from jacobiflow.singular import frame, jump

    before = (flows._integrate, engine._integrate, cli.flow_plane, jump.flow_plane,
              frame.NormalFormCoefficients.__dict__["system"])
    t = tracer.Tracer()
    t.install()
    try:
        assert engine._integrate is flows._integrate is not before[0]
        assert cli.flow_plane is jump.flow_plane is flows.flow_plane is not before[2]
        assert frame.NormalFormCoefficients.__dict__["system"] is not before[4]
    finally:
        t.uninstall()
    after = (flows._integrate, engine._integrate, cli.flow_plane, jump.flow_plane,
             frame.NormalFormCoefficients.__dict__["system"])
    assert after == before


def test_benchmark_declares_what_it_measures():
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in declared["workloads"]] == list(scenarios.WORKLOADS)
    names = [m["name"] for m in declared["end_to_end"] + declared["per_layer"]]
    assert len(names) == len(set(names))
    assert run.tail_percentile(19) is None
    assert run.tail_percentile(20) == 50
    assert run.tail_percentile(100) == 90


def test_scaled_time_divides_by_the_mean_of_the_probes():
    ref = run.PROBE_REF_S
    assert run.scaled(1.5, ref, ref) == pytest.approx(1.5)
    # probes that took 2 and 4 times the reference: the host ran 3 times slower
    assert run.scaled(3.0, 2 * ref, 4 * ref) == pytest.approx(1.0)
