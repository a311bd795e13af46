"""Alternating benchmark pairs: this checkout against a parent tree.

Run from anywhere::

    python3 tools/ab_pairs.py PARENT_TREE [--workload curve] [--seed 0] [--pairs 10]

``--workload`` and ``--seed`` may be given more than once; by default every
workload runs at seed 0.  Both trees are copied to a temporary directory
(``src``, ``perfbench`` and ``BENCHMARK.json``, without caches), so neither
checkout is written to.  Each pair runs ``perfbench/run.py --trace 0`` once
on each copy, the parent first in even pairs and the change first in odd
ones.  For each workload, seed and end-to-end metric of ``BENCHMARK.json``
it prints the parent's and the change's medians, the parent's interquartile
range and the pairs the change won (better by the metric's direction).  The
raw runs are written as JSON to ``--json`` (default
``.perfbench/ab_pairs.json`` in this checkout).
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "perfbench", "BENCHMARK.json")


def copy_tree(tree: Path, to: Path) -> Path:
    """The parts of a checkout the benchmark runs, copied without caches."""
    for name in COPIED:
        if (tree / name).is_dir():
            shutil.copytree(tree / name, to / name,
                            ignore=shutil.ignore_patterns("__pycache__", ".perfbench"))
        else:
            shutil.copy(tree / name, to / name)
    return to


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The end-to-end metrics of one ``perfbench/run.py --trace 0`` run on ``tree``."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=tree, capture_output=True, text=True, check=True)
    last = json.loads(proc.stdout.splitlines()[-1])
    return {name: m["value"] for name, m in last["metrics"].items()}


def summary(runs: list[dict], better: dict[str, str]) -> list[str]:
    """One line per metric: medians, the parent's IQR and the pairs the change won."""
    lines = []
    for name, direction in better.items():
        parent = [r["parent"][name] for r in runs]
        change = [r["change"][name] for r in runs]
        q = statistics.quantiles(parent, n=4) if len(parent) > 1 else [parent[0]] * 3
        won = sum((c < p) if direction == "lower" else (c > p) for p, c in zip(parent, change))
        lines.append(f"  {name:<12} parent {statistics.median(parent):.6g}  "
                     f"change {statistics.median(change):.6g}  "
                     f"parent IQR {q[0]:.6g}-{q[2]:.6g}  won {won} of {len(runs)}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--seed", type=int, action="append")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--json", type=Path, default=ROOT / ".perfbench" / "ab_pairs.json")
    args = parser.parse_args(argv)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in declared["end_to_end"]}
    workloads = args.workload or [w["name"] for w in declared["workloads"]]
    results = {}
    with tempfile.TemporaryDirectory() as tmp:
        trees = {"parent": copy_tree(args.parent.resolve(), Path(tmp) / "parent"),
                 "change": copy_tree(ROOT, Path(tmp) / "change")}
        for workload in workloads:
            for seed in args.seed or [0]:
                runs = []
                for i in range(args.pairs):
                    order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                    runs.append({side: run_once(trees[side], workload, seed, args.seconds)
                                 for side in order})
                results[f"{workload}-seed{seed}"] = runs
                print(f"{workload} seed {seed}, {args.pairs} pairs")
                print("\n".join(summary(runs, better)), flush=True)
    args.json.parent.mkdir(parents=True, exist_ok=True)
    args.json.write_text(json.dumps(results, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
