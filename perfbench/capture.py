"""Capture the reference outputs that ``run.py`` compares against.

Run from the root of a source checkout::

    python3 perfbench/capture.py

For every workload it runs the corpus ops and the first blocks of variants
of seed ``run.REFERENCE_SEED`` and stores each op's exit code, error class
and parsed output in ``perfbench/reference/<workload>.json.gz``.  Floats
keep 10 significant digits, far below the tolerances ``checks.py`` applies.
Re-capture only when a change is meant to alter outputs, and say so.
"""

from __future__ import annotations

import gzip
import json
import shutil
import sys

import checks
import run
import scenarios

#: blocks of seed-0 variants whose outputs are captured
REFERENCE_BLOCKS = {"curve": 3, "pole": 5, "jet": 4}


def _trim(value):
    if isinstance(value, float):
        return float(f"{value:.10g}")
    if isinstance(value, list):
        return [_trim(v) for v in value]
    if isinstance(value, dict):
        return {k: _trim(v) for k, v in value.items()}
    return value


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    from jacobiflow import cli

    run.REFERENCE_DIR.mkdir(exist_ok=True)
    for workload in scenarios.WORKLOADS:
        work = run.OUT / f"capture-{workload}"
        shutil.rmtree(work, ignore_errors=True)
        ops = scenarios.write_scenarios(workload, run.REFERENCE_SEED,
                                        REFERENCE_BLOCKS[workload], work)
        refs = {}
        for rec in run.run_round(cli, ops, work, "ref"):
            error = None
            if rec["code"] != 0:
                error = json.loads(rec["stderr"].strip().splitlines()[-1])["error"]
            output = checks.read_output(rec["out"]) if rec["code"] == 0 else None
            refs[rec["op"].id] = {"code": rec["code"], "error": error, "output": _trim(output)}
            print(f"{workload:6s} {rec['op'].id:24s} exit {rec['code']} {error or ''}")
        blob = json.dumps({"seed": run.REFERENCE_SEED, "ops": refs}, sort_keys=True)
        path = run.REFERENCE_DIR / f"{workload}.json.gz"
        path.write_bytes(gzip.compress(blob.encode("utf-8"), mtime=0))
        shutil.rmtree(work)
    return 0


if __name__ == "__main__":
    sys.exit(main())
