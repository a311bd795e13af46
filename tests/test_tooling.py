"""Guards on the shape of the package: one integrator call site, one solver call
per transport, a lean import, exports that resolve."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import jacobiflow
from jacobiflow import cli, flows

SRC = Path(__file__).resolve().parents[1] / "src"
CORPUS = Path(__file__).resolve().parents[1] / "perfbench" / "corpus"


class _SolveIvpSites(ast.NodeVisitor):
    """Names of the functions that mention ``solve_ivp`` outside an import."""

    def __init__(self) -> None:
        self.scope: list[str] = []
        self.sites: list[str] = []

    def _scoped(self, node) -> None:
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _scoped

    def visit_Name(self, node: ast.Name) -> None:
        if node.id == "solve_ivp":
            self.sites.append(".".join(self.scope) or "<module>")

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if node.attr == "solve_ivp":
            self.sites.append(".".join(self.scope) or "<module>")
        self.generic_visit(node)


def test_solve_ivp_is_called_only_in_flows_integrate():
    sites, imports = [], []
    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC).with_suffix("").as_posix().replace("/", ".")
        tree = ast.parse(path.read_text(encoding="utf-8"))
        visitor = _SolveIvpSites()
        visitor.visit(tree)
        sites += [f"{module}.{site}" for site in visitor.sites]
        imports += [module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                    for alias in node.names if alias.name == "solve_ivp"]
        if "solve_ivp" in path.read_text(encoding="utf-8"):
            assert module == "jacobiflow.flows", f"{module} mentions solve_ivp"
    assert sites == ["jacobiflow.flows._integrate"]
    assert imports == ["jacobiflow.flows"]


# one march per transport: the regular curve is one piece, the portrait
# moves each of its 14 start lines once; neither grows past a restart event
@pytest.mark.parametrize("verb, scenario, calls", [
    ("trace", "regular", 1), ("portrait", "portrait", 14),
])
def test_cli_makes_one_solver_call_per_transport(tmp_path, monkeypatch, verb, scenario, calls):
    seen = []
    integrate = flows._integrate
    monkeypatch.setattr(flows, "_integrate", lambda *a, **k: seen.append(1) or integrate(*a, **k))
    assert cli.main([verb, str(CORPUS / f"{scenario}.json"), "--out", str(tmp_path / "o.csv")]) == 0
    assert len(seen) == calls


def test_cli_import_does_not_load_mpmath():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, jacobiflow.cli; print('mpmath' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "False"


def test_every_exported_name_resolves():
    modules = [jacobiflow] + [
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(jacobiflow.__path__, prefix="jacobiflow.")
    ]
    stale = [f"{module.__name__}.{name}" for module in modules
             for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert len(modules) > 10
    assert stale == []
