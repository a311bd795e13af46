"""Corpus coverage: the statements of the package's functions that no golden
and no benchmark op runs.

Run from anywhere::

    python3 tools/corpus_coverage.py

Every scenario of ``tests/golden`` runs under each CLI verb in both formats,
and one round of each benchmark workload at seed 0, sized by
``scenarios.blocks_for(workload, 30)``, runs under its own verbs.  Each op is
one in-process ``jacobiflow.cli.main([verb, scenario, "--out", file, ...])``
call under ``sys.settrace``, which records the lines run in
``src/jacobiflow``; an op that exits non-zero counts too, since a refusal
runs code.  Then, for each module, every statement inside a function body
that never ran is printed with its line number and first line of text.  A
compound statement ran when its header or any statement inside it did;
docstrings are not statements here.
"""

from __future__ import annotations

import ast
import contextlib
import io
import sys
import tempfile
from pathlib import Path

from corpus_timings import ROOT, SRC

GOLDEN = ROOT / "tests" / "golden"
PACKAGE = SRC / "jacobiflow"
#: seconds of the benchmark round whose ops are traced
ROUND_S = 30.0
FORMATS = ("csv", "json")


def _statements(stmts: list[ast.stmt]):
    """The statements of a body and, recursively, of its blocks, without the
    bodies of nested functions and classes."""
    for stmt in stmts:
        yield stmt
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        for field in ("body", "orelse", "finalbody"):
            yield from _statements(getattr(stmt, field, []))
        for block in getattr(stmt, "handlers", []) + getattr(stmt, "cases", []):
            yield from _statements(block.body)


def function_statements(tree: ast.Module) -> list[ast.stmt]:
    """Every statement inside a function body of a module, docstrings left out."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body[1:] if ast.get_docstring(node, clean=False) is not None else node.body
            found += _statements(body)
    return found


def traced_lines(argvs: list[list[str]]) -> dict[str, set[int]]:
    """The lines each file of ``src/jacobiflow`` ran while ``cli.main`` ran
    every argument list."""
    from jacobiflow import cli

    prefix = str(PACKAGE)
    ran: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        ran.setdefault(name, set())
        return local

    before = sys.gettrace()
    for argv in argvs:
        with contextlib.redirect_stderr(io.StringIO()), contextlib.redirect_stdout(io.StringIO()):
            sys.settrace(call)
            try:
                cli.main(argv)
            finally:
                sys.settrace(before)
    return ran


def never_ran(argvs: list[list[str]]) -> dict[str, list[tuple[int, str]]]:
    """``module: [(line, text), ...]`` of the function statements that no
    argument list ran, for every module of the package that has one."""
    ran = traced_lines(argvs)
    report = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = ran.get(str(path), set())
        text = source.splitlines()
        missed = sorted({(stmt.lineno, text[stmt.lineno - 1].strip())
                         for stmt in function_statements(ast.parse(source))
                         if lines.isdisjoint(range(stmt.lineno, stmt.end_lineno + 1))})
        if missed:
            module = path.relative_to(SRC).with_suffix("").as_posix().replace("/", ".")
            report[module] = missed
    return report


def golden_argvs(scenarios: list[Path], out: Path) -> list[list[str]]:
    """Each scenario under every CLI verb in both formats."""
    from jacobiflow import cli

    return [[verb, str(path), "--out", str(out / f"{path.stem}.{verb}.{fmt}"), "--format", fmt]
            for path in scenarios for verb in cli.VERBS for fmt in FORMATS]


def main() -> int:
    sys.path[:0] = [str(SRC), str(ROOT / "perfbench")]
    import scenarios

    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        goldens = sorted(p for p in GOLDEN.glob("*.json") if not p.name.endswith(".summary.json"))
        argvs = golden_argvs(goldens, out)
        for workload in scenarios.WORKLOADS:
            directory = out / workload
            for op in scenarios.write_scenarios(workload, 0, scenarios.blocks_for(workload, ROUND_S),
                                                directory):
                argvs.append([op.verb, str(directory / f"{op.scenario}.json"),
                              "--out", str(directory / f"{op.id}.csv")])
        report = never_ran(argvs)
    print(f"{len(argvs)} ops")
    for module, missed in report.items():
        print(module)
        for line, text in missed:
            print(f"  {line}: {text}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
