"""Guards on the shape of the package: no scipy and no ``numpy.polynomial`` in
the package, Legendre entries formed once and none past the order, no frame
completion where the pairs span the frame, one integrator call site, the
callers of the transport kernel, one solver call per transport, a number of
LAPACK calls per trace that does not grow with its nodes, a lean import,
exports that resolve, no orphaned private helper, an error taxonomy with no
class that nothing raises, and working corpus timing, accuracy and output
comparison commands."""

import ast
import importlib
import json
import os
import pkgutil
import re
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import jacobiflow
from jacobiflow import cli, engine, flows
from jacobiflow.singular import frame

SRC = Path(__file__).resolve().parents[1] / "src"
CORPUS = Path(__file__).resolve().parents[1] / "perfbench" / "corpus"


def _src_modules():
    """(dotted module name, parsed tree) of every module of the package."""
    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC).with_suffix("").as_posix().replace("/", ".")
        yield module, ast.parse(path.read_text(encoding="utf-8"))


def _imports(package: str) -> list[str]:
    """``module: imported name`` for every import of ``package`` (or of one of
    its submodules) in the package.  The walk also sees imports inside
    functions."""
    found = []
    for module, tree in _src_modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                names = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            found += [f"{module}: {name}" for name in names
                      if name == package or name.startswith(package + ".")]
    return found


def test_no_src_module_imports_scipy():
    # numpy is the one runtime dependency; scipy serves the tests as an
    # independent reference
    assert _imports("scipy") == []


def test_no_module_imports_scipy_special():
    # the closed-form models and their Bessel functions are test oracles
    assert [name for name in _imports("scipy") if ": scipy.special" in name] == []


def test_no_src_module_imports_numpy_polynomial():
    # jacobiflow.series is the one polynomial algebra of the package;
    # numpy.polynomial serves the tests as a reference
    assert _imports("numpy.polynomial") == []


# the Legendre entries b^i (i >= 1) are sigma products, each formed once per
# piece and none past the order: the CLI and the curve share them on the data
@pytest.mark.parametrize("scenario, products", [("regular", 0), ("degen_m2", 0), ("order2", 2)])
def test_legendre_entries_are_formed_once_up_to_the_order(tmp_path, monkeypatch, scenario,
                                                           products):
    formed = []

    def counted(*args, _fn=engine.vsigma):
        formed.append(args)
        return _fn(*args)

    monkeypatch.setattr(engine, "vsigma", counted)
    assert cli.main(["trace", str(CORPUS / f"{scenario}.json"),
                     "--out", str(tmp_path / "o.csv")]) == 0
    assert len(formed) == products


def test_a_frame_of_n_pairs_builds_no_completion_pool(tmp_path, monkeypatch):
    # the corpus degen_m3 frame (k = n = 2) is complete once its two pairs
    # are built: the sigma products are sigma(X, X') and the four of the
    # e2, f2 pair, none for the 2n projected coordinate axes (16 more) that
    # only a frame of fewer pairs needs
    formed = []

    def counted(*args, _fn=frame.vsigma):
        formed.append(args)
        return _fn(*args)

    monkeypatch.setattr(frame, "vsigma", counted)
    assert cli.main(["classify", str(CORPUS / "degen_m3.json"),
                     "--out", str(tmp_path / "o.csv")]) == 0
    assert len(formed) == 5


class _CallSites(ast.NodeVisitor):
    """Names of the functions that mention ``name`` outside an import."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.scope: list[str] = []
        self.sites: list[str] = []

    def _scoped(self, node) -> None:
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _scoped

    def visit_Name(self, node: ast.Name) -> None:
        if node.id == self.name:
            self.sites.append(".".join(self.scope) or "<module>")

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if node.attr == self.name:
            self.sites.append(".".join(self.scope) or "<module>")
        self.generic_visit(node)


def _call_sites(name: str) -> list[str]:
    sites = []
    for module, tree in _src_modules():
        visitor = _CallSites(name)
        visitor.visit(tree)
        sites += [f"{module}.{site}" for site in visitor.sites]
    return sites


def test_every_march_steps_by_one_batch_and_one_chain():
    # every ODE solve is one march of flows._integrate, which steps by
    # batches of Gauss-Legendre steps (flows._batch), not by solve_ivp, that
    # one builder places (flows._proposed), and moves every frame by the one
    # chain of propagators (flows._chain), which alone renormalises a frame
    # that grows: along the chain, and at the nodes inside its pair steps
    assert _call_sites("solve_ivp") == []
    assert _call_sites("_batch") == ["jacobiflow.flows._integrate"]
    assert _call_sites("_increments") == ["jacobiflow.flows._batch"]
    assert _call_sites("_chain") == ["jacobiflow.flows._batch"]
    assert _call_sites("_renormalise") == ["jacobiflow.flows._chain"] * 2
    assert _call_sites("_plane_errors") == ["jacobiflow.flows._batch"]
    assert _call_sites("_proposed") == ["jacobiflow.flows._integrate"]


def test_the_epsilon_family_is_one_stack_march_not_a_plane_per_member():
    # the transports that call the kernel: the curve past the singular
    # neighbourhood, flow_plane, and the epsilon family, whose members share
    # one stack of planes; only the portrait, with its stack of lines,
    # transports by flow_plane, so the family cannot fall back to one march
    # per member
    assert _call_sites("_integrate") == [
        "jacobiflow.engine._jacobi_curve",
        "jacobiflow.flows.flow_plane", "jacobiflow.singular.jump.epsilon_family_oracle",
    ]
    assert _call_sites("flow_plane") == ["jacobiflow.cli._run_portrait"]


def _private_definitions() -> list[str]:
    """``module.name`` of every private top-level function and class of the package."""
    return [f"{module}.{node.name}" for module, tree in _src_modules() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.startswith("__")]


def test_no_private_helper_is_orphaned():
    # a deletion must take the helpers only it used along: every private
    # top-level function or class is named, outside an import, somewhere in src
    used: Counter = Counter()
    for _, tree in _src_modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used[node.id] += 1
            elif isinstance(node, ast.Attribute):
                used[node.attr] += 1
    defined = _private_definitions()
    assert len(defined) > 10
    assert [name for name in defined if not used[name.rsplit(".", 1)[1]]] == []


def _raised_names(tree) -> set[str]:
    """Names of the classes raised, called or bare, in a module."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                names.add(exc.id)
            elif isinstance(exc, ast.Attribute):
                names.add(exc.attr)
    return names


def test_every_error_class_has_a_raise_site():
    modules = dict(_src_modules())
    classes = [node.name for node in modules["jacobiflow.errors"].body
               if isinstance(node, ast.ClassDef)]
    raised = set().union(*(_raised_names(tree) for tree in modules.values()))
    bases = {"JacobiflowError", "ConfigError", "MathError"}
    assert bases <= set(classes)
    assert sorted(set(classes) - bases - raised) == []


# one march per transport: the regular curve is one piece, the portrait
# moves all 14 of its start lines in one march
@pytest.mark.parametrize("verb, scenario, calls", [
    ("trace", "regular", 1), ("portrait", "portrait", 1),
])
def test_cli_makes_one_solver_call_per_transport(tmp_path, monkeypatch, verb, scenario, calls):
    seen = []
    integrate = flows._integrate

    def counted(*a, **k):
        seen.append(1)
        return integrate(*a, **k)

    # every module that imported the kernel calls its own binding
    for module in list(sys.modules.values()):
        if module.__name__.startswith("jacobiflow") and \
                getattr(module, "_integrate", None) is integrate:
            monkeypatch.setattr(module, "_integrate", counted)
    assert cli.main([verb, str(CORPUS / f"{scenario}.json"), "--out", str(tmp_path / "o.csv")]) == 0
    assert len(seen) == calls


def _count_lapack(monkeypatch) -> Counter:
    """Count the calls of numpy's LAPACK wrappers from now on, except those
    made by the transport kernel (one batch of steps per solve) and by the
    bang-bang recursion (each switch extends the plane the one before left);
    both grow with the nodes by design."""
    counts: Counter = Counter()
    paused: list[int] = []
    for name in ("svd", "qr", "solve", "inv", "eigvals"):
        def counted(*a, _fn=getattr(np.linalg, name), _name=name, **k):
            counts[_name] += not paused
            return _fn(*a, **k)

        monkeypatch.setattr(np.linalg, name, counted)
    for attr, fn in (("_integrate", flows._integrate),
                     ("_bang_bang", engine._bang_bang)):
        def pausing(*a, _fn=fn, **k):
            paused.append(1)
            try:
                return _fn(*a, **k)
            finally:
                paused.pop()

        # every module that imported the function calls its own binding
        for module in list(sys.modules.values()):
            if module.__name__.startswith("jacobiflow") and getattr(module, attr, None) is fn:
                monkeypatch.setattr(module, attr, pausing)
    return counts


# a trace costs a fixed number of LAPACK calls, however many nodes it has:
# every per-node step of the Grassmannian and Maslov layers works on the stack
@pytest.mark.parametrize("verb, scenario", [
    ("trace", "regular"), ("maslov", "regular"), ("trace", "order2"), ("trace", "degen_m1"),
    ("trace", "degen_m2"), ("trace", "degen_m3"), ("bangbang", "bangbang"), ("portrait", "portrait"),
])
def test_lapack_calls_do_not_grow_with_the_nodes(tmp_path, monkeypatch, verb, scenario):
    counts = _count_lapack(monkeypatch)
    seen = []
    for nodes in (50, 400):
        raw = json.loads((CORPUS / f"{scenario}.json").read_text())
        raw["grid"]["steps"] = nodes
        if scenario == "bangbang":  # its nodes are its switches, not its grid
            raw["data"]["x_list"] = (raw["data"]["x_list"] * 2)[: nodes - 1]
        path = tmp_path / f"{scenario}-{nodes}.json"
        path.write_text(json.dumps(raw))
        argv = [verb, str(path), "--out", str(tmp_path / "o.csv")]
        # one uncounted run first, so that the count does not depend on
        # which tests ran before; no chart basis is cached any more, each
        # pass builds its own
        assert cli.main(argv) == 0
        counts.clear()
        assert cli.main(argv) == 0
        seen.append(dict(counts))
    assert seen[0] == seen[1]
    assert sum(seen[0].values()) > 0


def test_cli_import_does_not_load_mpmath():
    # nor scipy: numpy is the package's one runtime dependency
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    probe = "import sys, jacobiflow.cli; print(sorted({m.split('.')[0] for m in sys.modules}))"
    out = subprocess.run([sys.executable, "-c", probe],
                         env=env, capture_output=True, text=True, check=True)
    loaded = set(ast.literal_eval(out.stdout.strip()))
    assert "jacobiflow" in loaded
    assert not loaded & {"scipy", "mpmath"}


def test_every_exported_name_resolves():
    modules = [jacobiflow] + [
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(jacobiflow.__path__, prefix="jacobiflow.")
    ]
    stale = [f"{module.__name__}.{name}" for module in modules
             for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert len(modules) > 10
    assert stale == []


def test_corpus_timings_script_times_one_op():
    # tools/corpus_timings.py is the one command behind the Baseline table
    # of ROADMAP.md: the cold import and the compile time of the package's
    # source, then the chosen corpus ops, each with its transport's work: the
    # corpus regular march's opening step and its 99 pairs of node
    # intervals, three propagators each, and no QR; neither it nor the
    # degen_m3 trace, whose epsilon family marches the data's own system,
    # solves a dense stage system.  The Maslov pass counts 198 of the regular
    # trace's 199 intervals on the chart and one by the Souriau pass.  The
    # degeneracy traces add their series orders, read from the record the op
    # built: each corpus frame keeps all 40 orders of its one build and is
    # summed at half of them, the lowest admissible order, as is the degen_m2
    # blown-up series, and degen_m3 sums no blown-up series
    script = SRC.parent / "tools" / "corpus_timings.py"
    out = subprocess.run([sys.executable, str(script), "--op", "regular.trace", "--op",
                          "degen_m2.trace", "--op", "degen_m3.trace", "--repeat", "1"],
                         capture_output=True, text=True, check=True)
    cold, compiled, *lines = out.stdout.splitlines()
    name, seconds, unit = cold.rsplit(None, 2)
    assert name == "import jacobiflow.cli" and float(seconds) > 0.0 and unit == "s"
    name, seconds, unit = compiled.rsplit(None, 2)
    assert name == "compile src/jacobiflow" and float(seconds) > 0.0 and unit == "s"
    rows = {op: fields for op, *fields in (line.split() for line in lines)}
    assert list(rows) == ["regular.trace", "degen_m2.trace", "degen_m3.trace"]
    assert all(float(fields[0]) > 0.0 and fields[1] == "s" for fields in rows.values())
    work = {op: dict(zip(fields[2::2], map(int, fields[3::2]))) for op, fields in rows.items()}
    counts = ["batches", "propagators", "dense", "chain_steps", "qrs", "chart_intervals",
              "souriau_intervals"]
    assert work["regular.trace"] == {"batches": 2, "propagators": 300, "dense": 0,
                                     "chain_steps": 100, "qrs": 0, "chart_intervals": 198,
                                     "souriau_intervals": 1}
    orders = ["frame_order", "frame_length", "series_order"]
    assert list(work["degen_m3.trace"]) == counts + orders
    assert work["degen_m3.trace"]["qrs"] > 0 and work["degen_m3.trace"]["dense"] == 0
    assert [work[op][key] for op in ("degen_m2.trace", "degen_m3.trace") for key in orders] == [
        20, 40, 20, 20, 40, 0]


def test_corpus_accuracy_script_measures_the_chosen_ops():
    # tools/corpus_accuracy.py gives the accuracy beside the timings: the
    # worst plane angle of a corpus op against the same op at the rtol floor,
    # and against that march on a grid refined 4 times, which reads nonzero
    # where the node spacing sets the steps; an op without a transport has
    # no refined figure
    script = SRC.parent / "tools" / "corpus_accuracy.py"
    out = subprocess.run([sys.executable, str(script), "--op", "regular.trace", "--op",
                          "portrait.portrait", "--op", "order2.trace"],
                         capture_output=True, text=True, check=True)
    rows = [line.split() for line in out.stdout.splitlines()]
    assert [row[0] for row in rows] == ["regular.trace", "portrait.portrait", "order2.trace"]
    assert all(0.0 <= float(row[1]) < 1e-8 and row[2] == "rad" for row in rows)
    assert all(0.0 < float(row[3]) < 1e-8 and row[4] == "rad" for row in rows[:2])
    assert rows[2][3:] == ["-"]


def test_corpus_coverage_lists_the_statements_no_op_runs(tmp_path, monkeypatch):
    # tools/corpus_coverage.py finds the function statements no golden or
    # benchmark op runs; on regular_short alone, under every verb in both
    # formats, the trace runs canonicalize and never maslov_index, which
    # only the benchmark's tracer names
    monkeypatch.syspath_prepend(str(SRC.parent / "tools"))
    coverage = importlib.import_module("corpus_coverage")
    report = coverage.never_ran(coverage.golden_argvs([SRC.parent / "tests" / "golden"
                                                       / "regular_short.json"], tmp_path))

    def body(module, name):
        """Lines of the statements a function's body holds at its top level."""
        tree = ast.parse((SRC / (module.replace(".", "/") + ".py")).read_text(encoding="utf-8"))
        [node] = [node for node in ast.walk(tree)
                  if isinstance(node, ast.FunctionDef) and node.name == name]
        return {stmt.lineno for stmt in node.body[1:]}  # after the docstring

    listed = {module: {line for line, _ in missed} for module, missed in report.items()}
    assert body("jacobiflow.maslov", "maslov_index") <= listed["jacobiflow.maslov"]
    assert body("jacobiflow.grassmann", "canonicalize").isdisjoint(listed["jacobiflow.grassmann"])


def test_compare_outputs_finds_the_ops_that_differ(tmp_path, monkeypatch):
    # tools/compare_outputs.py runs this tree and another, each in a fresh
    # interpreter, over the same ops: against itself nothing differs, and
    # against a copy whose config errors exit 5 exactly the refused ops do:
    # a regular scenario is traced and counted, and refused by every other verb
    monkeypatch.syspath_prepend(str(SRC.parent / "tools"))
    compare = importlib.import_module("compare_outputs")
    ops = compare.golden_ops([SRC.parent / "tests" / "golden" / "regular_short.json"])
    assert len(ops) == 12
    assert compare.differences(SRC.parent, ops, tmp_path / "self") == []
    other = tmp_path / "other"
    shutil.copytree(SRC, other / "src", ignore=shutil.ignore_patterns("__pycache__"))
    cli_py = other / "src" / "jacobiflow" / "cli.py"
    cli_py.write_text(cli_py.read_text().replace("EXIT_CONFIG = 2", "EXIT_CONFIG = 5"))
    assert compare.differences(other, ops, tmp_path / "mutant") == [
        f"regular_short.{verb}.{fmt}: code, stderr"
        for verb in cli.VERBS if verb not in ("trace", "maslov") for fmt in ("csv", "json")]
    # a copy that scales the second column of every emitted frame by 1 + 1e-9,
    # which moves cells of about 1 by 1e-9 and no plane, and adds a summary
    # key: each differing file says how far apart it is
    shutil.rmtree(other / "src")
    shutil.copytree(SRC, other / "src", ignore=shutil.ignore_patterns("__pycache__"))
    cli_py.write_text(cli_py.read_text()
                      .replace("    planes = curve.planes\n",
                               "    planes = curve.planes * [1.0, 1.0 + 1e-9]\n")
                      .replace('summary = {"order_m": seq.first_nonzero,',
                               'summary = {"added": 0, "order_m": seq.first_nonzero,'))
    found = compare.differences(other, ops, tmp_path / "scaled")
    assert [line.split(":")[0] for line in found] == [
        f"regular_short.{verb}.{fmt}" for verb in ("trace", "maslov") for fmt in ("csv", "json")]
    for line in found:
        [(cells, frames)] = re.findall(r"cells (\S+), frames ([^;)]+)", line)
        assert 0.9e-9 < float(cells) < 1e-6 and float(frames) < 1e-12
        assert line.count("summary keys added") == 1


def test_ab_pairs_runs_one_alternating_pair(tmp_path):
    # tools/ab_pairs.py runs the benchmark on a copy of each tree and prints,
    # per end-to-end metric, both medians, the parent's IQR and the pairs won
    script = SRC.parent / "tools" / "ab_pairs.py"
    out = tmp_path / "runs.json"
    proc = subprocess.run([sys.executable, str(script), str(SRC.parent), "--workload", "curve",
                           "--pairs", "1", "--seconds", "1", "--json", str(out)],
                          capture_output=True, text=True, check=True)
    head, *lines = proc.stdout.splitlines()
    assert head == "curve seed 0, 1 pairs"
    assert [line.split()[0] for line in lines] == ["setup_s", "trace_s", "ops_per_s", "ok_ratio",
                                                   "peak_rss_mb"]
    assert all(line.endswith("of 1") for line in lines)
    [pair] = json.loads(out.read_text())["curve-seed0"]
    assert pair["parent"]["ok_ratio"] == pair["change"]["ok_ratio"] == 1.0
