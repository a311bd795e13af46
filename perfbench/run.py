"""Scenario-corpus benchmark of the ``jacobiflow`` CLI.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload curve --seed 0 --seconds 30 --trace 0

Each op is one in-process ``jacobiflow.cli.main([verb, scenario, "--out", file])``
call, run one after another in a single thread.  A run

1. writes one round of the workload's scenarios (corpus plus seeded variants,
   see ``scenarios.py``) under ``.perfbench/`` in the checkout;
2. with ``--trace 0``, times cold start (``setup_s``) in fresh interpreters,
   runs one untimed warm-up op, then runs the round once; the round's size
   comes from ``--seconds`` alone, so every commit runs the same ops;
3. with ``--trace 1``, runs the round once untraced and once with spans
   around every layer's public functions (``tracer.py``), and writes the
   spans next to the results;
4. checks every op's exit code, error class and output (``checks.py``);
5. prints a table of all figures, then one JSON line with the metrics
   ``BENCHMARK.json`` declares for the chosen ``--trace`` mode.

The host's speed drifts: on a shared 2-core x86 VM the same op took from
0.40 to 0.73 s within two minutes, and whole 30 s runs were 1.4 times
slower than others.  Every op is therefore bracketed by a probe, a fixed
small scipy integration (:func:`probe_s`), and the timing figures use
scaled times: wall time times ``PROBE_REF_S`` over the mean of the op's two
probes, i.e. seconds at the host's reference speed.  Raw wall medians are
printed and saved beside them.  Ops in ``scenarios.LONG_OPS`` are run and
checked but left out of the timing figures: two probes cannot follow the
drift across their 15 s.

It exits 2 without a result when the checkout holds no ``src/jacobiflow``.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import io
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np
from scipy.integrate import solve_ivp

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
REFERENCE_DIR = HERE / "reference"
#: seed whose variant outputs were captured in ``reference/``
REFERENCE_SEED = 0
#: fresh interpreters started to time cold start; the median is reported
SETUP_RUNS = 5
VERBS = ("trace", "maslov", "bangbang", "classify", "jump", "portrait")
#: wall time of :func:`probe_s` on an unloaded 2-core x86 VM (Python 3.11,
#: scipy 1.x); scaled times are seconds at that speed
PROBE_REF_S = 0.020
_PROBE_A = np.array([[0.0, 1.0, 0.0, 0.0], [-1.0, 0.0, 0.3, 0.0],
                     [0.0, 0.0, 0.0, 1.0], [0.2, 0.0, -2.0, 0.0]])
PERCENTILES = (50, 75, 90, 95, 99)

import checks  # noqa: E402
import scenarios  # noqa: E402
import tracer  # noqa: E402

COLD_START = (
    "import sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import jacobiflow.cli as cli\n"
    "for path in sys.argv[2:]:\n"
    "    cli.parse_scenario(path)\n"
)


def _probe_rhs(t, y):
    return _PROBE_A @ y


def probe_s() -> float:
    """Wall time of a fixed small integration: the host's current speed.

    It calls scipy and numpy the way the package does (about 2,700 small
    right-hand-side calls) but no package code, so no change to the
    package moves it.
    """
    t0 = perf_counter()
    solve_ivp(_probe_rhs, (0.0, 10.0), np.ones(4), rtol=1e-10, atol=1e-12)
    return perf_counter() - t0


def scaled(wall: float, before: float, after: float) -> float:
    """``wall`` in seconds at the reference speed, from the probes around it."""
    return wall * PROBE_REF_S * 2 / (before + after)


def cold_start_s(paths: list[Path]) -> tuple[float, float]:
    """Scaled and wall median of fresh interpreters that import the CLI and
    parse ``paths``.

    One cold start is too short to average out a probe's own noise, so the
    median wall time is scaled by the median of all the probes around them.
    """
    walls, probes = [], [probe_s()]
    for _ in range(SETUP_RUNS):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", COLD_START, str(SRC), *map(str, paths)],
                       check=True, stdout=subprocess.DEVNULL)
        walls.append(perf_counter() - t0)
        probes.append(probe_s())
    wall = statistics.median(walls)
    return wall * PROBE_REF_S / statistics.median(probes), wall


def import_split_s() -> dict[str, float]:
    """Self import time of scipy's and jacobiflow's modules, from ``-X importtime``."""
    totals = []
    for _ in range(3):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", COLD_START, str(SRC)],
            check=True, capture_output=True, text=True,
        )
        split = {"scipy": 0.0, "jacobiflow": 0.0}
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            self_us, _, name = (part.strip() for part in line[12:].split("|"))
            if not self_us.isdigit():
                continue
            top = name.split(".")[0]
            if top in split:
                split[top] += int(self_us) * 1e-6
        totals.append(split)
    return {key: statistics.median(t[key] for t in totals) for key in ("scipy", "jacobiflow")}


def run_round(cli, ops, directory: Path, tag: str, trace=None) -> list[dict]:
    """Run every op once, with a probe before the first op and after each.

    The clock covers only the ``cli.main`` call.
    """
    records = []
    before = probe_s()
    for op in ops:
        out = directory / f"{tag}.{op.id}.csv"
        argv = [op.verb, str(directory / f"{op.scenario}.json"), "--out", str(out)]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            t0 = perf_counter()
            if trace is None:
                code = cli.main(argv)
            else:
                code = trace.call_op(len(records), cli.main, argv)
            wall = perf_counter() - t0
        after = probe_s()
        records.append({"op": op, "code": code, "stderr": err.getvalue(), "out": out,
                        "wall_s": wall, "scaled_s": scaled(wall, before, after),
                        "round": tag})
        before = after
    return records


def load_reference(workload: str, seed: int) -> dict:
    """Reference records for the ops this seed shares with the captured run."""
    path = REFERENCE_DIR / f"{workload}.json.gz"
    refs = json.loads(gzip.decompress(path.read_bytes()).decode("utf-8"))
    corpus = {op.id for op in scenarios.CORPUS_OPS[workload]}
    return {k: v for k, v in refs["ops"].items() if seed == refs["seed"] or k in corpus}


def check_records(records: list[dict], directory: Path, references: dict) -> None:
    loaded: dict[str, dict] = {}
    for rec in records:
        op = rec["op"]
        if op.scenario not in loaded:
            loaded[op.scenario] = json.loads((directory / f"{op.scenario}.json").read_text())
        rec["error"], rec["problems"], rec["output"] = checks.check_op(
            op, rec["code"], rec["stderr"], rec["out"], loaded[op.scenario],
            references.get(op.id),
        )
        rec["met"] = not rec["problems"]
        rec["wrong"] = checks.is_wrong(op, rec["problems"], references.get(op.id))


def tail_percentile(count: int) -> int | None:
    """Highest listed percentile with at least ten samples above it."""
    usable = [p for p in PERCENTILES if count * (100 - p) / 100 >= 10]
    return usable[-1] if usable else None


def verb_figures(records: list[dict]) -> dict:
    out = {}
    for verb in VERBS:
        timed = [r for r in records if r["op"].verb == verb and r["met"]]
        if not timed:
            continue
        times = sorted(r["scaled_s"] for r in timed)
        fig = {"median_s": statistics.median(times), "samples": len(times),
               "wall_median_s": statistics.median(r["wall_s"] for r in timed)}
        p = tail_percentile(len(times))
        if p is not None:
            fig[f"p{p}_s"] = statistics.quantiles(times, n=100, method="inclusive")[p - 1]
        out[verb] = fig
    return out


def partial_ok_ratio(records: list[dict]) -> float:
    partial = [row[-2] for r in records if r["output"] and r["op"].verb in checks.CURVE_VERBS
               for row in r["output"]["rows"]]
    return sum(p is not None and math.isfinite(p) for p in partial) / max(1, len(partial))


def layer_metrics(summary: dict, records: list[dict], plain_s: float,
                  imports: dict[str, float]) -> dict[str, float]:
    fn = summary["functions"]
    system = fn["singular.frame.NormalFormCoefficients.system"]
    m = {
        "singular.frame.NormalFormCoefficients.system.calls": system["calls"],
        "singular.frame.NormalFormCoefficients.system.self_s": system["self_s"],
        "singular.frame.NormalFormCoefficients.system.us_per_call":
            1e6 * system["self_s"] / max(1, system["calls"]),
        "flows.rhs_per_integrate": summary["rhs_per_integrate"],
        "maslov.margins_per_arc": summary["margins_per_arc"],
        "maslov.partial_ok_ratio": partial_ok_ratio(records),
        "grassmann.self_s": summary["layers"]["L3"],
        "setup.scipy_s": imports["scipy"],
        "setup.jacobiflow_s": imports["jacobiflow"],
        "untraced_s": sum(row["untraced"] for row in summary["per_op"].values()),
        "trace_overhead": sum(r["scaled_s"] for r in records) / plain_s,
    }
    for name, f in fn.items():
        for key in ("calls", "s", "self_s", "errors"):
            m.setdefault(f"{name}.{key}", f[key])
    for layer, value in summary["layers"].items():
        m[f"{layer}.self_s"] = value
    return m


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=scenarios.WORKLOADS)
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "jacobiflow" / "cli.py").is_file():
        print(f"perfbench: no jacobiflow sources under {SRC}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = declared["per_layer" if args.trace else "end_to_end"]

    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    blocks = scenarios.blocks_for(args.workload, args.seconds)
    ops = scenarios.write_scenarios(args.workload, args.seed, blocks, work)
    warmup = scenarios.write_warmup(work)
    references = load_reference(args.workload, args.seed)

    sys.path.insert(0, str(SRC))
    figures: dict[str, float] = {}
    if args.trace == 0:
        figures["setup_s"], figures["setup_wall_s"] = cold_start_s(
            sorted({work / f"{op.scenario}.json" for op in ops}))
    else:
        imports = import_split_s()
    from jacobiflow import cli

    run_round(cli, [warmup], work, "warmup")
    if args.trace == 0:
        records = run_round(cli, ops, work, "timed")
        figures["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        check_records(records, work, references)
        timed = [r for r in records if r["op"].id not in scenarios.LONG_OPS]
        verbs = verb_figures(timed)
        for verb, fig in verbs.items():
            figures[f"{verb}_s"] = fig["median_s"]
        met = [r for r in timed if r["met"]]
        figures["ops_per_s"] = len(met) / sum(r["scaled_s"] for r in timed)
        figures["ops_per_wall_s"] = len(met) / sum(r["wall_s"] for r in timed)
        figures["ok_ratio"] = sum(r["met"] for r in records) / len(records)
        figures["failed_ratio"] = 1 - figures["ok_ratio"]
        detail = {"verbs": verbs, "long_ops": {r["op"].id: r["wall_s"] for r in records
                                               if r["op"].id in scenarios.LONG_OPS}}
    else:
        plain = run_round(cli, ops, work, "plain")
        spans = tracer.Tracer()
        spans.install()
        try:
            records = run_round(cli, ops, work, "traced", spans)
        finally:
            spans.uninstall()
        spans.write(OUT / f"{name}.spans.csv.gz")
        summary = tracer.summarize(spans)
        check_records(plain + records, work, references)
        figures = layer_metrics(summary, records, sum(r["scaled_s"] for r in plain), imports)
        records = plain + records
        by_op = {ops[i].id: row for i, row in summary["per_op"].items()}
        detail = {"per_op_layers": by_op, "functions": summary["functions"]}

    failed = [r for r in records if not r["met"]]
    correct = not any(r["wrong"] for r in records)
    metrics = {}
    for m in wanted:
        if m["name"] not in figures:
            raise RuntimeError(f"metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": figures[m["name"]], "unit": m["unit"]}

    results = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "blocks": blocks, "correct": correct,
        "attempted": len(records), "failed": len(failed), "figures": figures, **detail,
        "failures": [{"op": r["op"].id, "round": r["round"], "problems": r["problems"]}
                     for r in failed],
        "ops": [{"op": r["op"].id, "round": r["round"], "code": r["code"],
                 "error": r["error"], "wall_s": r["wall_s"], "scaled_s": r["scaled_s"],
                 "met": r["met"]} for r in records],
    }
    (OUT / f"{name}.results.json").write_text(json.dumps(results, indent=1) + "\n")
    shutil.rmtree(work)

    units = {m["name"]: m["unit"] for m in wanted}
    units.update(failed_ratio="ratio", setup_wall_s="s", ops_per_wall_s="1/s")
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"ops {len(records)}  failed {len(failed)}  correct {correct}")
    if args.trace == 0:
        for verb, fig in detail["verbs"].items():
            tail = "  ".join(f"{k[:-2]} {v:.4f} s" for k, v in fig.items() if k[0] == "p")
            print(f"  {verb + '_s':<12} median {fig['median_s']:.4f} s  "
                  f"samples {fig['samples']}  {tail}  "
                  f"(wall median {fig['wall_median_s']:.4f} s)")
        for op_id, wall in detail["long_ops"].items():
            print(f"  {op_id:<24} wall {wall:.4f} s, not in the timing figures")
    shown = [m["name"] for m in wanted]
    if args.trace == 0:
        shown += ["failed_ratio", "setup_wall_s", "ops_per_wall_s"]
    for key in shown:
        print(f"  {key:<58} {figures[key]:.6g} {units[key]}")
    for r in failed:
        print(f"  FAILED {r['round']}.{r['op'].id}: {'; '.join(r['problems'])}")
    print(json.dumps({"correct": correct, "attempted": len(records), "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
